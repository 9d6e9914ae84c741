(* Wall-clock benchmark of EXTENSIBLE ZOOKEEPER over loopback TCP.

   One process deploys three EZK replicas (Zab plus an extension manager
   on each) on [Edc_wire.Tcp_transport], connects one client session to
   follower 1, and drives it from its own event loop: [Sim.run] up to the
   wall clock, then the load generator, then [Tcp_transport.poll].  Every
   replica runs with the modelled CPU costs ([preprocess_cost],
   [read_cost]) at zero, so the figures measure the real code path, not
   the [Cpu] model.

     ezk_bench.exe --workload W --seed N --seconds S --trace 0|1 [--plant P]

   Workloads (inputs generated from --seed only):
   - kv_write     100% set_data of 256-byte values, uniform keys, forwarded
                  by the follower to the leader (the extension manager
                  misses the intercept);
   - ezk_counter  the Fig 5 counter extension (get_data on the trigger
                  object) on one hot key, run at the leader;
   - kv_read      90% get_data (one in ten arms a watch) / 10% set_data,
                  reads served locally by the follower.

   A plain run (--trace 0) makes [deployments] fresh deployments in turn.
   Each is set up (timed), then runs open-loop phases at the workload's
   fixed low and high rates, each request timed from its due time, and a
   closed-loop phase that keeps a fixed window of [Client.request_async]
   in flight for peak throughput.  Each end-to-end figure pools the
   deployments (see [plain_metrics]).  Turns in which the host took the CPU away are
   detected from process CPU time and left out (see [step]).  With
   --trace 1 one deployment runs each phase untraced, then traced: the
   codec, transport handlers, [Sim.run] and [poll] are wrapped, spans are
   kept in memory, a self-time table is printed, spans go to
   perfbench/_out/, and the per-layer metrics are reported instead of the
   end-to-end ones.

   The last stdout line is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Correctness checks fail
   the run (exit 1).  --plant P plants one wrong output (counter, kv_write,
   kv_read or decode) to show that the matching check catches it. *)

open Edc_simnet
module Zk = Edc_zookeeper
module P = Zk.Protocol
module Server = Zk.Server
module Client = Zk.Client
module Data_tree = Zk.Data_tree
module Zab = Edc_replication.Zab
module Tcp = Edc_wire.Tcp_transport
module Ezk = Edc_ezk.Ezk
module Ezk_client = Edc_ezk.Ezk_client
module Manager = Edc_core.Manager
module Value = Edc_core.Value
module Sandbox = Edc_core.Sandbox
module Subscription = Edc_core.Subscription
module Counter = Edc_recipes.Counter

let now_ns = Spans.now_ns
let ms_ns = 1_000_000
let s_ns = 1_000_000_000

(* ------------------------------------------------------------------ *)
(* Growable sample buffers                                             *)
(* ------------------------------------------------------------------ *)

module Fbuf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  (* nearest rank *)
  let percentile b p =
    if b.n = 0 then nan
    else begin
      let s = Array.sub b.a 0 b.n in
      Array.sort Float.compare s;
      s.(max 0 (min (b.n - 1) (int_of_float (ceil (p *. float_of_int b.n)) - 1)))
    end
end

module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }
  let length b = b.n
  let get b i = b.a.(i)

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  (* [set_grow b i x] writes slot [i], filling new slots with [-1]. *)
  let set_grow b i x =
    while b.n <= i do
      push b (-1)
    done;
    b.a.(i) <- x
end

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type mix = Kv_write | Ezk_counter | Kv_read

type workload = {
  name : string;
  mix : mix;
  keys : int;  (** working-set size, preloaded at set-up *)
  window : int;  (** closed-loop requests in flight *)
  low_rate : float;  (** open-loop ops/s, well below saturation *)
  high_rate : float;  (** open-loop ops/s, well into batching *)
}

let workloads =
  [
    { name = "kv_write"; mix = Kv_write; keys = 1000; window = 64;
      low_rate = 2000.; high_rate = 16000. };
    { name = "ezk_counter"; mix = Ezk_counter; keys = 0; window = 64;
      low_rate = 2000.; high_rate = 20000. };
    { name = "kv_read"; mix = Kv_read; keys = 1000; window = 64;
      low_rate = 2000.; high_rate = 30000. };
  ]

let value_len = 256
let read_share = 90 (* percent of kv_read ops *)
let watch_every = 10 (* one read in this many arms a watch *)

(* Every written value is [8 hex digits of its write sequence number] then
   248 bytes of a seeded pad, so a read can be traced back to the write
   that produced it without storing the values. *)
type gen = {
  rng : Random.State.t;
  pad : string;
  paths : string array;
  key_of_seq : Ibuf.t;  (** write sequence number -> key *)
}

let make_gen ~seed ~index wl =
  let rng = Random.State.make [| seed; index; 0x5eed |] in
  let pad = String.init (2 * value_len) (fun _ -> Char.chr (97 + Random.State.int rng 26)) in
  let paths = Array.init wl.keys (Printf.sprintf "/kv/k%04d") in
  let key_of_seq = Ibuf.create () in
  (* the preload writes sequence numbers 0 .. keys-1, one per key *)
  Array.iteri (fun k _ -> Ibuf.push key_of_seq k) paths;
  { rng; pad; paths; key_of_seq }

let value_of g seq =
  let b = Bytes.create value_len in
  Bytes.blit_string (Printf.sprintf "%08x" seq) 0 b 0 8;
  Bytes.blit_string g.pad (seq mod value_len) b 8 (value_len - 8);
  Bytes.unsafe_to_string b

(* The sequence number a value claims, if it is byte-for-byte the value
   that write produced. *)
let seq_of_value g s =
  if String.length s <> value_len then None
  else
    match int_of_string_opt ("0x" ^ String.sub s 0 8) with
    | Some seq when seq < Ibuf.length g.key_of_seq ->
        let off = seq mod value_len in
        let rec same i =
          i = value_len || (s.[i] = g.pad.[off + i - 8] && same (i + 1))
        in
        if same 8 then Some seq else None
    | _ -> None

type req = Write of { key : int; seq : int } | Read of { key : int; watch : bool } | Bump

let write g key =
  let seq = Ibuf.length g.key_of_seq in
  Ibuf.push g.key_of_seq key;
  Write { key; seq }

let next_req g wl =
  match wl.mix with
  | Ezk_counter -> Bump
  | Kv_write -> write g (Random.State.int g.rng wl.keys)
  | Kv_read ->
      let r = Random.State.int g.rng (100 * watch_every) in
      let key = Random.State.int g.rng wl.keys in
      if r >= read_share * watch_every then write g key
      else Read { key; watch = r mod watch_every = 0 }

let op_of g = function
  | Write { key; seq } ->
      P.Set_data { path = g.paths.(key); data = value_of g seq; expected_version = None }
  | Read { key; watch } -> P.Get_data { path = g.paths.(key); watch }
  | Bump -> P.Get_data { path = Counter.trigger_oid; watch = false }

(* ------------------------------------------------------------------ *)
(* Correctness state                                                   *)
(* ------------------------------------------------------------------ *)

type plant = No_plant | Plant_counter | Plant_kv_write | Plant_kv_read | Plant_decode

type checks = {
  plant : plant;
  mutable errors : int;
  mutable messages : string list;  (** the first few, newest first *)
  mutable attempted : int;
  mutable completed : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable failed_writes : int;
  (* kv *)
  last_acked : int array;  (** key -> highest acknowledged write seq *)
  acked_version : Ibuf.t;  (** write seq -> acknowledged version, -1 *)
  last_read_version : int array;
  reads_key : Ibuf.t;
  reads_seq : Ibuf.t;
  reads_version : Ibuf.t;
  (* counter *)
  mutable seen : Bytes.t;  (** value -> returned already *)
  mutable bumps_ok : int;
}

let make_checks ~plant wl =
  let acked_version = Ibuf.create () in
  for seq = 0 to wl.keys - 1 do
    Ibuf.set_grow acked_version seq 0 (* preloaded by create: version 0 *)
  done;
  {
    plant;
    errors = 0;
    messages = [];
    attempted = 0;
    completed = 0;
    failed = 0;
    timeouts = 0;
    failed_writes = 0;
    last_acked = Array.init wl.keys Fun.id;
    acked_version;
    last_read_version = Array.make wl.keys 0;
    reads_key = Ibuf.create ();
    reads_seq = Ibuf.create ();
    reads_version = Ibuf.create ();
    seen = Bytes.make 4096 '\000';
    bumps_ok = 0;
  }

let fail c msg =
  c.errors <- c.errors + 1;
  if c.errors <= 5 then c.messages <- msg :: c.messages

let see_counter c n =
  if n < 1 then fail c (Printf.sprintf "counter returned %d" n)
  else begin
    while Bytes.length c.seen <= n do
      let b = Bytes.make (2 * Bytes.length c.seen) '\000' in
      Bytes.blit c.seen 0 b 0 (Bytes.length c.seen);
      c.seen <- b
    done;
    if Bytes.get c.seen n <> '\000' then
      fail c (Printf.sprintf "counter returned %d twice" n);
    Bytes.set c.seen n '\001'
  end

(* Judge one reply as it arrives. *)
let complete g c req (r : P.result) =
  c.completed <- c.completed + 1;
  match (req, r) with
  | Write { key; seq }, P.Set { version } ->
      Ibuf.set_grow c.acked_version seq version;
      if seq > c.last_acked.(key) then c.last_acked.(key) <- seq
  | Read { key; _ }, P.Data (data, stat) -> (
      let data =
        if c.plant = Plant_kv_read && Ibuf.length c.reads_key = 100 then
          "z" ^ String.sub data 1 (String.length data - 1)
        else data
      in
      match seq_of_value g data with
      | None -> fail c (Printf.sprintf "read of %s returned a value never written" g.paths.(key))
      | Some seq ->
          let v = stat.Zk.Znode.version in
          if v < c.last_read_version.(key) then
            fail c
              (Printf.sprintf "read of %s went back from version %d to %d"
                 g.paths.(key) c.last_read_version.(key) v);
          c.last_read_version.(key) <- v;
          Ibuf.push c.reads_key key;
          Ibuf.push c.reads_seq seq;
          Ibuf.push c.reads_version v)
  | Bump, P.Ext s -> (
      match Value.deserialize s with
      | Ok (Value.Int n) ->
          let n = if c.plant = Plant_counter && n = 100 then 99 else n in
          c.bumps_ok <- c.bumps_ok + 1;
          see_counter c n
      | _ -> fail c ("counter returned " ^ s))
  | _, P.Error e ->
      c.failed <- c.failed + 1;
      (match req with Write _ -> c.failed_writes <- c.failed_writes + 1 | _ -> ());
      if e = Zk.Zerror.Timeout then c.timeouts <- c.timeouts + 1
  | _, r ->
      c.failed <- c.failed + 1;
      fail c (Format.asprintf "unexpected reply %a" P.pp_result r)

(* ------------------------------------------------------------------ *)
(* Tracing wrappers (used only with --trace 1)                         *)
(* ------------------------------------------------------------------ *)

let k_encode = 0
let k_decode = 1
let k_poll = 2
let k_sim = 3
let k_leader_zab = 4
let k_leader = 5
let k_follower_zab = 6
let k_follower = 7
let k_client = 8
let k_request = 9

let span_kinds =
  [|
    { Spans.name = "encode"; layer = "wire" };
    { name = "decode"; layer = "wire" };
    { name = "Tcp_transport.poll"; layer = "wire" };
    { name = "Sim.run"; layer = "simnet" };
    { name = "leader Zab_msg"; layer = "replication" };
    { name = "leader other msg"; layer = "zookeeper" };
    { name = "follower Zab_msg"; layer = "replication" };
    { name = "follower other msg"; layer = "zookeeper" };
    { name = "client handler"; layer = "zookeeper" };
    { name = "request"; layer = "request" };
  |]

let span_cap = 50_000

(* Messages handed to the transport, per destination. *)
type msgs = {
  mutable propose : int;
  mutable entries : int;
  mutable ack : int;
  mutable commit : int;
  mutable ping : int;
  mutable forward : int;
  mutable watch_events : int;
}

type tracer = { sp : Spans.t; msgs : msgs }

let xid_of (m : Server.wire) =
  match m with
  | Server.Client_msg (P.Request { xid; _ }) -> xid
  | Server.Server_msg (P.Reply { xid; _ }) -> xid
  | Server.Forward { xid; _ } -> xid
  | _ -> -1

let count_msg ms n (m : Server.wire) =
  match m with
  | Server.Zab_msg (Zab.Propose { entries; _ }) ->
      ms.propose <- ms.propose + n;
      ms.entries <- ms.entries + (n * List.length entries)
  | Server.Zab_msg (Zab.Ack _) -> ms.ack <- ms.ack + n
  | Server.Zab_msg (Zab.Commit _) -> ms.commit <- ms.commit + n
  | Server.Zab_msg (Zab.Ping _) -> ms.ping <- ms.ping + n
  | Server.Forward _ -> ms.forward <- ms.forward + n
  | Server.Server_msg (P.Watch_event _) -> ms.watch_events <- ms.watch_events + n
  | _ -> ()

let leader_id = 0
let client_addr = 100

(* Count every message by constructor and time each address's handler. *)
let instrument tr (t : Server.wire Transport.t) =
  let sp = tr.sp in
  {
    Transport.send =
      (fun ~src ~dst ~size m ->
        if sp.Spans.on then count_msg tr.msgs 1 m;
        t.send ~src ~dst ~size m);
    send_many =
      (fun ~src ~dsts ~size m ->
        if sp.Spans.on then count_msg tr.msgs (List.length dsts) m;
        t.send_many ~src ~dsts ~size m);
    register =
      (fun addr h ->
        t.register addr (fun ~src ~size m ->
            let kind =
              match m with
              | _ when addr = client_addr -> k_client
              | Server.Zab_msg _ -> if addr = leader_id then k_leader_zab else k_follower_zab
              | _ -> if addr = leader_id then k_leader else k_follower
            in
            Spans.wrap sp kind (xid_of m) (fun () -> h ~src ~size m)));
  }

let codec tracer =
  match tracer with
  | None -> (Zk.Server_wire.encode, Zk.Server_wire.decode_sub)
  | Some { sp; _ } ->
      ( (fun m -> Spans.wrap sp k_encode (xid_of m) (fun () -> Zk.Server_wire.encode m)),
        fun s ~pos ~len ->
          if not sp.on then Zk.Server_wire.decode_sub s ~pos ~len
          else begin
            Spans.enter sp;
            let r = Zk.Server_wire.decode_sub s ~pos ~len in
            Spans.leave sp k_decode (match r with Ok m -> xid_of m | Error _ -> -1);
            r
          end )

(* ------------------------------------------------------------------ *)
(* Deployment and event loop                                           *)
(* ------------------------------------------------------------------ *)

type dep = {
  sim : Sim.t;
  hub : Server.wire Tcp.t;
  base_port : int;
  servers : Server.t array;
  ezks : Ezk.t array;
  client : Client.t;
  t0 : int;  (** wall-clock origin of the virtual clock, ns *)
  tracer : tracer option;
  mutable inflight : int;
  mutable pending_peak : int;
  mutable last_run : int;
  mutable last_cpu : int;
  stolen : Ibuf.t;  (** start, stop of each loop turn the host took the CPU in *)
  mutable stolen_ns : int;  (** wall time the process spent off the CPU *)
  mutable busy_ns : int;  (** time in turns that did work, traced phases *)
  lag : Fbuf.t;  (** ms between consecutive [Sim.run] calls, traced phases *)
}

let server_config =
  { Server.default_config with
    preprocess_cost = Sim_time.zero;
    read_cost = Sim_time.zero }

let replica_ids = [ 0; 1; 2 ]

(* Process CPU time (user + system), ns; [getrusage] has microsecond
   resolution. *)
let cpu_ns () =
  let t = Unix.times () in
  int_of_float ((t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e9)

(* The loop never blocks, so wall time that passes without CPU time is
   time another process held the CPU.  More than this in one turn marks
   the turn as stolen. *)
let stolen_threshold_ns = 50_000

(* One loop turn: run the simulator up to the wall clock, let [gen] issue
   what is due (it says whether it sent anything), and poll the sockets;
   returns whether the turn did any work.  The loop never sleeps: on a
   virtual machine a sleeping select wakes up to milliseconds late, which
   would swamp the low-rate latencies.  After an idle turn it waits on the
   clock instead (see [idle_wait]). *)
let step d gen =
  let t = now_ns () in
  let traced = match d.tracer with Some { sp; _ } -> sp.on | None -> false in
  if traced then Fbuf.push d.lag (float_of_int (t - d.last_run) /. 1e6);
  let cpu = cpu_ns () in
  let off_cpu = t - d.last_run - (cpu - d.last_cpu) in
  if off_cpu > stolen_threshold_ns then begin
    Ibuf.push d.stolen d.last_run;
    Ibuf.push d.stolen t;
    d.stolen_ns <- d.stolen_ns + off_cpu
  end;
  d.last_run <- t;
  d.last_cpu <- cpu;
  let events = Sim.executed_events d.sim and frames = Tcp.frames_received d.hub in
  let until = Sim_time.ns (t - d.t0) in
  (match d.tracer with
  | Some { sp; _ } -> Spans.wrap sp k_sim (-1) (fun () -> Sim.run d.sim ~until)
  | None -> Sim.run d.sim ~until);
  let p = Sim.pending d.sim in
  if p > d.pending_peak then d.pending_peak <- p;
  let sent = gen () in
  (match d.tracer with
  | Some { sp; _ } -> Spans.wrap sp k_poll (-1) (fun () -> Tcp.poll d.hub ~timeout:0.)
  | None -> Tcp.poll d.hub ~timeout:0.);
  let worked =
    sent || Sim.executed_events d.sim > events || Tcp.frames_received d.hub > frames
  in
  if traced && worked then d.busy_ns <- d.busy_ns + (now_ns () - t);
  worked

(* After a turn that did nothing, wait on the clock (no syscall, no
   allocation) up to [idle_wait_ns] or until [next] before polling again:
   an idle poll allocates, and polling flat out would trigger a minor GC
   every few milliseconds whatever the load. *)
let idle_wait_ns = 200_000

let idle_wait ?(next = max_int) () =
  let until = min next (now_ns () + idle_wait_ns) in
  while now_ns () < until do
    ()
  done

let idle () = false

(* Turn the loop until [cond] holds; false on timeout. *)
let drive_until d ~max_ns cond =
  let deadline = now_ns () + max_ns in
  while (not (cond ())) && now_ns () < deadline do
    if not (step d idle) then idle_wait ()
  done;
  cond ()

let await_ok what p =
  match Proc.await p with
  | P.Error e -> failwith (Printf.sprintf "%s: %s" what (Zk.Zerror.to_string e))
  | _ -> ()

(* Session connect, extension registration, counter object, preload. *)
let prepare d g wl =
  let c = d.client in
  Client.connect c;
  (match Ezk_client.register c Counter.program with
  | Ok _ -> ()
  | Error e -> failwith ("register: " ^ Zk.Zerror.to_string e));
  (match Client.create_node c Counter.counter_oid "0" with
  | Ok _ -> ()
  | Error e -> failwith ("counter: " ^ Zk.Zerror.to_string e));
  if wl.keys > 0 then begin
    (match Client.create_node c "/kv" "" with
    | Ok _ -> ()
    | Error e -> failwith ("/kv: " ^ Zk.Zerror.to_string e));
    let q = Queue.create () in
    Array.iteri
      (fun key path ->
        if Queue.length q >= 64 then await_ok "preload" (Queue.pop q);
        Queue.add
          (Client.request_async c
             (P.Create { path; data = value_of g key; ephemeral = false; sequential = false }))
          q)
      g.paths;
    Queue.iter (await_ok "preload") q
  end

let rec deploy ~seed ~tracer ~index ~attempt g wl =
  let base_port =
    20_000 + (((Unix.getpid () * 7919) + (index * 613) + (attempt * 104_729)) mod 40_000)
  in
  let sim = Sim.create ~seed () in
  let encode, decode = codec tracer in
  let hub = Tcp.create ~sim ~base_port ~encode ~decode () in
  let net =
    match tracer with
    | None -> Tcp.transport hub
    | Some tr -> instrument tr (Tcp.transport hub)
  in
  match
    let servers =
      Array.of_list
        (List.map
           (fun id ->
             Server.create ~config:server_config ~sim ~net ~id ~replica_ids
               ~initial_leader:leader_id ())
           replica_ids)
    in
    Array.iter Server.start servers;
    let ezks = Array.map Ezk.install servers in
    Ezk.bootstrap servers.(leader_id);
    let client = Client.create ~sim ~net ~addr:client_addr ~replica:1 () in
    (servers, ezks, client)
  with
  | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when attempt < 20 ->
      Tcp.shutdown hub;
      deploy ~seed ~tracer ~index ~attempt:(attempt + 1) g wl
  | servers, ezks, client ->
      let t0 = now_ns () in
      let d =
        { sim; hub; base_port; servers; ezks; client; t0; tracer; inflight = 0;
          pending_peak = 0; last_run = t0; last_cpu = cpu_ns (); stolen = Ibuf.create ();
          stolen_ns = 0; busy_ns = 0; lag = Fbuf.create () }
      in
      let ready = Proc.async sim (fun () -> prepare d g wl) in
      if not (drive_until d ~max_ns:(30 * s_ns) (fun () -> Proc.is_fulfilled ready))
      then failwith "set-up did not finish within 30 s";
      if not (Server.is_leader servers.(leader_id)) then
        failwith "replica 0 is not the leader after set-up";
      d

(* ------------------------------------------------------------------ *)
(* Phases                                                              *)
(* ------------------------------------------------------------------ *)

type mode = Closed of int | Open of float

type phase = {
  dur_ns : int;
  mutable completed : int;  (** replies that arrived before the phase ended *)
  mutable stolen_ns : int;  (** of [dur_ns], time the host took the CPU *)
  due : Ibuf.t;  (** per reply: when the request was due, ns *)
  fin : Ibuf.t;  (** per reply: when the reply arrived, ns *)
  stolen : Ibuf.t;  (** the deployment's stolen turns *)
  late : Fbuf.t;  (** ms the generator sent after the due time *)
}

let run_phase (d : dep) g wl c ~mode ~dur_ns =
  let ph =
    { dur_ns; completed = 0; stolen_ns = 0; due = Ibuf.create (); fin = Ibuf.create ();
      stolen = d.stolen; late = Fbuf.create () }
  in
  let stolen0 = d.stolen_ns in
  let start = now_ns () in
  let stop = start + dur_ns in
  let issue due =
    let req = next_req g wl in
    let op = op_of g req in
    Fbuf.push ph.late (float_of_int (now_ns () - due) /. 1e6);
    c.attempted <- c.attempted + 1;
    d.inflight <- d.inflight + 1;
    let p = Client.request_async d.client op in
    let xid = Client.requests_sent d.client in
    Proc.on_fulfill p (fun r ->
        let fin = now_ns () in
        d.inflight <- d.inflight - 1;
        complete g c req r;
        if fin < stop then ph.completed <- ph.completed + 1;
        Ibuf.push ph.due due;
        Ibuf.push ph.fin fin;
        match d.tracer with
        | Some { sp; _ } -> Spans.record sp k_request ~start:due ~stop:fin ~xid
        | None -> ())
  in
  (match mode with
  | Closed window ->
      while now_ns () < stop do
        let worked =
          step d (fun () ->
              let sent = d.inflight < window in
              while d.inflight < window do
                issue (now_ns ())
              done;
              sent)
        in
        if not worked then idle_wait ()
      done
  | Open rate ->
      let interval = 1e9 /. rate in
      let k = ref 0 in
      let due k = start + int_of_float (float_of_int k *. interval) in
      while now_ns () < stop do
        let worked =
          step d (fun () ->
              let now = now_ns () and k0 = !k in
              while due !k <= now && due !k < stop do
                issue (due !k);
                incr k
              done;
              !k > k0)
        in
        if not worked then idle_wait ~next:(due !k) ()
      done);
  ph.stolen_ns <- d.stolen_ns - stolen0;
  if not (drive_until d ~max_ns:(6 * s_ns) (fun () -> d.inflight = 0)) then
    failwith "requests still in flight 6 s after the phase";
  ph

(* Completions per second of CPU time the process held during [phs]:
   time another process took is neither the program's cost nor its. *)
let ops_s phs =
  let n = List.fold_left (fun n ph -> n + ph.completed) 0 phs in
  let ns = List.fold_left (fun n ph -> n + ph.dur_ns - ph.stolen_ns) 0 phs in
  float_of_int n /. (float_of_int ns /. 1e9)

(* Whether a stolen turn overlaps [due, fin]: the turns are in time
   order, so find the first that ends after [due]. *)
let overlaps_stolen st ~due ~fin =
  let n = Ibuf.length st / 2 in
  let rec first lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Ibuf.get st ((2 * mid) + 1) > due then first lo mid else first (mid + 1) hi
  in
  let i = first 0 n in
  i < n && Ibuf.get st (2 * i) < fin

(* Latencies in ms over every reply of [phs] whose request was not in
   flight while the host took the CPU, and the number left out. *)
let clean_lat phs =
  let b = Fbuf.create () and dropped = ref 0 in
  List.iter
    (fun ph ->
      for i = 0 to Ibuf.length ph.due - 1 do
        let due = Ibuf.get ph.due i and fin = Ibuf.get ph.fin i in
        if overlaps_stolen ph.stolen ~due ~fin then incr dropped
        else Fbuf.push b (float_of_int (fin - due) /. 1e6)
      done)
    phs;
  (b, !dropped)

(* The [p] latency percentile over the clean replies of [phs]. *)
let lat_ms phs p = Fbuf.percentile (fst (clean_lat phs)) p

let median xs =
  let b = Fbuf.create () in
  Array.iter (Fbuf.push b) xs;
  Fbuf.percentile b 0.5


(* ------------------------------------------------------------------ *)
(* Counter probes for the traced phases                                *)
(* ------------------------------------------------------------------ *)

let sum_servers d f = Array.fold_left (fun a s -> a + f s) 0 d.servers

let probes d (c : checks) =
  [|
    ("ops", fun () -> float_of_int c.completed);
    ("wall_ns", fun () -> float_of_int (now_ns ()));
    ("minor_words", fun () -> (Gc.quick_stat ()).Gc.minor_words);
    ("promoted_words", fun () -> (Gc.quick_stat ()).Gc.promoted_words);
    ("minor_gcs", fun () -> float_of_int (Gc.quick_stat ()).Gc.minor_collections);
    ("major_gcs", fun () -> float_of_int (Gc.quick_stat ()).Gc.major_collections);
    ("events", fun () -> float_of_int (Sim.executed_events d.sim));
    ("frames", fun () -> float_of_int (Tcp.frames_received d.hub));
    ("bytes", fun () -> float_of_int (Tcp.bytes_sent d.hub));
    ("applied", fun () -> float_of_int (sum_servers d Server.txns_applied));
    ("reads", fun () -> float_of_int (sum_servers d Server.reads_served));
    ("wire_encodes", fun () -> float_of_int (sum_servers d Server.wire_encodes));
    ("wire_sends", fun () -> float_of_int (sum_servers d Server.wire_sends));
  |]

let read_probes ps = Array.map (fun (_, f) -> f ()) ps

let probe ps acc name =
  let rec find i = if fst ps.(i) = name then acc.(i) else find (i + 1) in
  find 0

(* ------------------------------------------------------------------ *)
(* Extension-layer isolation timer                                     *)
(* ------------------------------------------------------------------ *)

(* Times [Manager.match_operation] (miss and hit) and
   [Manager.run_operation] on the leader's own registered counter
   extension, over a read-only proxy on the leader's committed tree. *)
let core_timers d =
  let m = Ezk.manager d.ezks.(leader_id) in
  let client = Client.session d.client in
  let tree = Server.tree d.servers.(leader_id) in
  let n = 20_000 in
  let per_call f =
    let t = now_ns () in
    for i = 1 to n do
      f i
    done;
    float_of_int (now_ns () - t) /. 1e3 /. float_of_int n
  in
  let miss_oids = Array.init 64 (Printf.sprintf "/kv/k%04d") in
  let miss =
    per_call (fun i ->
        match
          Manager.match_operation m ~client ~kind:Subscription.K_update
            ~oid:miss_oids.(i land 63)
        with
        | None -> ()
        | Some _ -> failwith "core timer: regular write matched an extension")
  in
  let hit () =
    Manager.match_operation m ~client ~kind:Subscription.K_read ~oid:Counter.trigger_oid
  in
  let entry =
    match hit () with Some e -> e | None -> failwith "core timer: counter not matched"
  in
  let hit_us = per_call (fun _ -> ignore (Sys.opaque_identity (hit ()))) in
  let unsupported _ = Error "read-only proxy" in
  let proxy =
    {
      Sandbox.p_read =
        (fun oid ->
          match Data_tree.get_data tree oid with
          | Ok (data, st) ->
              Ok (Value.obj ~id:oid ~data ~version:st.Zk.Znode.version ~ctime:st.Zk.Znode.czxid)
          | Error e -> Error (Zk.Zerror.to_string e));
      p_exists = (fun oid -> Data_tree.mem tree oid);
      p_sub_objects = unsupported;
      p_create = (fun ~sequential:_ ~oid:_ ~data:_ -> Error "read-only proxy");
      p_update = (fun ~oid:_ ~data:_ -> Ok 0);
      p_cas = (fun ~oid:_ ~expected:_ ~data:_ -> Error "read-only proxy");
      p_delete = unsupported;
      p_block = unsupported;
      p_monitor = unsupported;
      p_notify = (fun ~client:_ ~oid:_ -> Error "read-only proxy");
      p_clock = (fun () -> 0);
    }
  in
  let params =
    [
      ("oid", Value.Str Counter.trigger_oid);
      ("data", Value.Str "");
      ("client", Value.Int client);
      ("kind", Value.Str "read");
    ]
  in
  let expect =
    match Data_tree.get_data tree Counter.counter_oid with
    | Ok (v, _) -> Value.Int (int_of_string v + 1)
    | Error _ -> failwith "core timer: no counter object"
  in
  let run_us =
    per_call (fun _ ->
        match Manager.run_operation m entry ~proxy ~params with
        | Ok v when Value.equal v expect -> ()
        | _ -> failwith "core timer: counter extension returned a wrong value")
  in
  (miss, hit_us, run_us)

(* ------------------------------------------------------------------ *)
(* Final checks                                                        *)
(* ------------------------------------------------------------------ *)

let final_checks d g wl c =
  (* let every replica apply the whole committed log *)
  let converged () =
    let a = Server.txns_applied d.servers.(0) in
    Array.for_all (fun s -> Server.txns_applied s = a) d.servers
  in
  if not (drive_until d ~max_ns:(5 * s_ns) converged) then
    fail c "replicas did not converge within 5 s";
  if c.plant = Plant_kv_write && wl.keys > 0 then begin
    let tree = Server.tree d.servers.(2) in
    match Data_tree.get_data tree g.paths.(0) with
    | Ok (_, st) ->
        Data_tree.apply_set tree ~path:g.paths.(0) ~data:"planted"
          ~version:(st.Zk.Znode.version + 1)
    | Error _ -> ()
  end;
  Array.iteri
    (fun i s ->
      let a = Data_tree.anomalies (Server.tree s) in
      if a <> 0 then fail c (Printf.sprintf "replica %d: %d tree anomalies" i a))
    d.servers;
  if Tcp.decode_errors d.hub <> 0 then
    fail c (Printf.sprintf "%d wire decode errors" (Tcp.decode_errors d.hub));
  (match wl.mix with
  | Ezk_counter ->
      let n = c.bumps_ok in
      let missing = ref 0 in
      for v = 1 to n do
        if v >= Bytes.length c.seen || Bytes.get c.seen v = '\000' then incr missing
      done;
      if !missing > 0 && c.failed = 0 then
        fail c (Printf.sprintf "counter values are not {1..%d}: %d missing" n !missing);
      if c.failed = 0 then
        Array.iteri
          (fun i s ->
            match Data_tree.get_data (Server.tree s) Counter.counter_oid with
            | Ok (v, _) when v = string_of_int n -> ()
            | Ok (v, _) -> fail c (Printf.sprintf "replica %d: counter %s, expected %d" i v n)
            | Error _ -> fail c (Printf.sprintf "replica %d: counter missing" i))
          d.servers
  | Kv_write | Kv_read ->
      if c.failed_writes = 0 then
        Array.iteri
          (fun i s ->
            let tree = Server.tree s in
            Array.iteri
              (fun key path ->
                match Data_tree.get_data tree path with
                | Ok (v, _) when v = value_of g c.last_acked.(key) -> ()
                | _ ->
                    fail c
                      (Printf.sprintf "replica %d: %s does not hold its last acknowledged value"
                         i path))
              g.paths)
          d.servers;
      for r = 0 to Ibuf.length c.reads_key - 1 do
        let key = Ibuf.get c.reads_key r and seq = Ibuf.get c.reads_seq r in
        let v = Ibuf.get c.reads_version r in
        if Ibuf.get g.key_of_seq seq <> key then
          fail c (Printf.sprintf "read of %s returned a value written to another key" g.paths.(key))
        else if seq < Ibuf.length c.acked_version
                && Ibuf.get c.acked_version seq >= 0
                && Ibuf.get c.acked_version seq <> v
        then
          fail c
            (Printf.sprintf "read of %s saw write %d at version %d, acknowledged as %d"
               g.paths.(key) seq v (Ibuf.get c.acked_version seq))
      done)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

(* Deployments of one plain run; each runs every phase in its share of
   the time. *)
let deployments = 20

(* Pinned GC.  A small minor heap (256 KiB) keeps each minor collection,
   and the stall it puts on every request in flight, short: with the
   default 2 MiB the kv_write p90 at the high rate is 1.6x the p50 and
   moves by half from one deployment to the next, with 64 MiB it reaches
   several ms; at 256 KiB it is within 15% of the p50. *)
let gc_minor_heap_words = 32 * 1024
let gc_space_overhead = 120

let refuse_runparam () =
  List.iter
    (fun var ->
      match Sys.getenv_opt var with
      | Some v when v <> "" ->
          Printf.eprintf
            "%s=%s is set: the benchmark pins its own GC settings and refuses to report under \
             another runtime configuration\n"
            var v;
          exit 2
      | _ -> ())
    [ "OCAMLRUNPARAM"; "CAMLRUNPARAM" ]

let usage () =
  prerr_endline
    "usage: ezk_bench --workload kv_write|ezk_counter|kv_read --seed N --seconds S --trace 0|1 \
     [--plant counter|kv_write|kv_read|decode]";
  exit 2

let parse_args () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let plant = ref No_plant in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; go rest
    | "--trace" :: v :: rest -> trace := int_of_string v; go rest
    | "--plant" :: v :: rest ->
        (plant :=
           match v with
           | "counter" -> Plant_counter
           | "kv_write" -> Plant_kv_write
           | "kv_read" -> Plant_kv_read
           | "decode" -> Plant_decode
           | _ -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let wl =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  (wl, !seed, !seconds, !trace = 1, !plant)

(* A frame whose body is not a valid message, sent to replica 1. *)
let send_garbage_frame d =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, d.base_port + 1));
  let b = Bytes.of_string "\000\000\000\008\000\000\000\100\255\255\255\255" in
  ignore (Unix.write fd b 0 (Bytes.length b) : int);
  ignore (drive_until d ~max_ns:(50 * ms_ns) (fun () -> false) : bool);
  Unix.close fd

(* What the phases of one deployment share; [seconds] is its share of
   the run. *)
type run = { d : dep; g : gen; wl : workload; c : checks; seconds : float }

let phase r mode share =
  run_phase r.d r.g r.wl r.c ~mode ~dur_ns:(int_of_float (share *. r.seconds *. 1e9))

let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.
let low_mode r = Open r.wl.low_rate
let high_mode r = Open r.wl.high_rate
let closed r = Closed r.wl.window
let warmup r mode = ignore (phase r mode 0.05 : phase)

type figures = {
  setup_s : float;
  peak : phase;
  low : phase;
  high : phase;
  heap_mb : float;  (** top of the heap after the open-loop phases *)
}

(* The phases of one deployment, tracing off.  Open-loop phases come
   first, so the timeout closures the peak phase leaves in the simulator
   do not weigh on their latencies.  Each loop kind gets its own
   discarded warmup. *)
let plain_phases r ~setup_s =
  warmup r (low_mode r);
  let low = phase r (low_mode r) 0.25 in
  let high = phase r (high_mode r) 0.25 in
  (* heap at fixed offered rates; the closed-loop heap would scale with
     the host's speed *)
  let heap_mb = heap_mb () in
  warmup r (closed r);
  let peak = phase r (closed r) 0.35 in
  let open_loop name ph =
    let lat, dropped = clean_lat [ ph ] in
    Printf.sprintf "%s p50 %.4f p90 %.4f p99 %.4f ms (%d kept, %d dropped)" name
      (Fbuf.percentile lat 0.5) (Fbuf.percentile lat 0.9) (Fbuf.percentile lat 0.99) lat.Fbuf.n
      dropped
  in
  Printf.printf "  setup %.4f s | peak %.0f ops/s | %s | %s | host took %.0f ms\n%!" setup_s
    (ops_s [ peak ]) (open_loop "low" low) (open_loop "high" high)
    (float_of_int r.d.stolen_ns /. 1e6);
  { setup_s; peak; low; high; heap_mb }

(* End-to-end metrics.  Latencies are percentiles over the clean replies
   of every deployment together, and peak throughput is every
   deployment's completions over their on-CPU time together.  A
   deployment that lands in a slow spell of the host then shifts the
   result by its share of the samples; a median over deployments would
   jump between the fast and the slow level whenever about half of them
   land in each.  Set-up time is the median over deployments.  The tail
   is a p90: on a shared host the p99 of a run swings by more than a
   quarter from run to run, so it is reported by the traced run instead.
   The median at the high rate is printed but not a metric: when the host
   runs fast, requests at the high rate stop overlapping and it drops
   from the batching level (about 0.5 ms) to the single-request level
   (about 0.06 ms), so it moves 6x with the host's speed where the other
   figures move 1.7x; the p90 stays at the batching level unless nearly
   every deployment lands in a fast spell.  The heap is the high-water
   mark after the first deployment's open-loop phases, at fixed offered
   rates. *)
let plain_metrics wl figs =
  let med f = median (Array.of_list (List.map f figs)) in
  let all f = List.map f figs in
  Printf.printf "peak: closed loop, window %d; low: open loop at %.0f ops/s; high: open loop at \
                 %.0f ops/s\n"
    wl.window wl.low_rate wl.high_rate;
  Printf.printf "high: p50 %.4f ms over the pooled replies (not a metric)\n"
    (lat_ms (all (fun f -> f.high)) 0.50);
  [
    ("setup_s", med (fun f -> f.setup_s), "s");
    ("peak_ops_s", ops_s (all (fun f -> f.peak)), "ops/s");
    ("lat_p50_ms.low", lat_ms (all (fun f -> f.low)) 0.50, "ms");
    ("lat_p90_ms.low", lat_ms (all (fun f -> f.low)) 0.90, "ms");
    ("lat_p90_ms.high", lat_ms (all (fun f -> f.high)) 0.90, "ms");
    ("heap_peak_mb", (List.hd figs).heap_mb, "MB");
  ]

(* Per-layer metrics: each phase runs an untraced half, then a traced
   half (the gap is the tracing overhead, and the untraced halves give the
   p99 tails); counters are summed over the traced halves only. *)
let traced_run r tr ~seed =
  let d = r.d and sp = tr.sp and ms = tr.msgs in
  let ps = probes d r.c in
  let acc = Array.make (Array.length ps) 0. in
  let late = Fbuf.create () in
  let traced mode share =
    let before = read_probes ps in
    sp.on <- true;
    let ph = phase r mode share in
    sp.on <- false;
    Array.iteri (fun i a -> acc.(i) <- acc.(i) +. a -. before.(i)) (read_probes ps);
    (match mode with
    | Open _ -> Array.iter (Fbuf.push late) (Array.sub ph.late.a 0 ph.late.n)
    | Closed _ -> ());
    ph
  in
  warmup r (low_mode r);
  let low_u = phase r (low_mode r) 0.15 in
  let low_t = traced (low_mode r) 0.15 in
  let high_u = phase r (high_mode r) 0.125 in
  ignore (traced (high_mode r) 0.125 : phase);
  warmup r (closed r);
  let peak_u = phase r (closed r) 0.15 in
  let peak_t = traced (closed r) 0.15 in
  let miss_us, hit_us, run_us = core_timers d in
  let get = probe ps acc in
  let ops = get "ops" and wall_ns = get "wall_ns" in
  let per_op x = x /. ops in
  let us_per_op k = float_of_int (Spans.total_ns sp k) /. 1e3 /. ops in
  Printf.printf "self time per layer over %.0f traced ops in %.2f s:\n" ops (wall_ns /. 1e9);
  Spans.print_table sp ~ops:(int_of_float ops) ~wall_ns:(int_of_float wall_ns)
    ~nested:(fun k -> k <> k_request);
  let out_dir = Filename.concat "perfbench" "_out" in
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let file = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.json" r.wl.name seed) in
  Spans.write_chrome sp file;
  Printf.printf "spans: %d kept, %d dropped, written to %s\n" (Spans.kept sp) (Spans.dropped sp)
    file;
  let p50 ph = lat_ms [ ph ] 0.5 and ops_s ph = ops_s [ ph ] in
  Printf.printf "tracing overhead: peak %.0f -> %.0f ops/s, lat_p50_ms.low %.4f -> %.4f ms\n"
    (ops_s peak_u) (ops_s peak_t) (p50 low_u) (p50 low_t);
  let pct a b = 100. *. (b -. a) /. a in
  let count n = per_op (float_of_int n) in
  [
    ("wire.encode_us_per_op", us_per_op k_encode, "us");
    ("wire.decode_us_per_op", us_per_op k_decode, "us");
    ("wire.frames_per_op", per_op (get "frames"), "count");
    ("wire.bytes_per_op", per_op (get "bytes"), "B");
    ("wire.decode_errors", float_of_int (Tcp.decode_errors d.hub), "count");
    ("wire.send_failures", float_of_int (Tcp.send_failures d.hub), "count");
    ("replication.propose_per_op", count ms.propose, "count");
    ("replication.ack_per_op", count ms.ack, "count");
    ("replication.commit_per_op", count ms.commit, "count");
    ("replication.forward_per_op", count ms.forward, "count");
    ( "replication.entries_per_propose",
      float_of_int ms.entries /. float_of_int (max 1 ms.propose),
      "count" );
    ("replication.ping_per_s", float_of_int ms.ping /. (wall_ns /. 1e9), "1/s");
    ("core.match_miss_us", miss_us, "us");
    ("core.match_hit_us", hit_us, "us");
    ("core.ext_run_us", run_us, "us");
    ( "core.compile_reuses",
      float_of_int
        (Array.fold_left (fun a e -> a + Manager.compile_reuses (Ezk.manager e)) 0 d.ezks),
      "count" );
    ("zookeeper.leader_handler_us_per_op", us_per_op k_leader_zab +. us_per_op k_leader, "us");
    ( "zookeeper.follower_handler_us_per_op",
      us_per_op k_follower_zab +. us_per_op k_follower,
      "us" );
    ("zookeeper.client_handler_us_per_op", us_per_op k_client, "us");
    ("zookeeper.txns_applied_per_op", per_op (get "applied"), "count");
    ("zookeeper.reads_served_per_op", per_op (get "reads"), "count");
    ("zookeeper.encodes_per_send", get "wire_encodes" /. max 1. (get "wire_sends"), "count");
    ("zookeeper.watch_events_per_op", count ms.watch_events, "count");
    ("zookeeper.client_timeouts", float_of_int r.c.timeouts, "count");
    ("zookeeper.send_late_p99_ms", Fbuf.percentile late 0.99, "ms");
    ("simnet.run_us_per_op", us_per_op k_sim, "us");
    ("simnet.events_per_op", per_op (get "events"), "count");
    ("simnet.pending_peak", float_of_int d.pending_peak, "count");
    ("simnet.loop_lag_p99_ms", Fbuf.percentile d.lag 0.99, "ms");
    ("gc.minor_words_per_op", per_op (get "minor_words"), "words");
    ("gc.promoted_words_per_op", per_op (get "promoted_words"), "words");
    ("gc.minor_collections_per_kop", 1000. *. per_op (get "minor_gcs"), "count");
    ("gc.major_collections_per_kop", 1000. *. per_op (get "major_gcs"), "count");
    ("loop.busy_share", float_of_int d.busy_ns /. wall_ns, "ratio");
    ("loop.stolen_share", float_of_int d.stolen_ns /. float_of_int (now_ns () - d.t0), "ratio");
    ("tail.lat_p99_ms.low", lat_ms [ low_u ] 0.99, "ms");
    ("tail.lat_p99_ms.high", lat_ms [ high_u ] 0.99, "ms");
    ("tail.lat_p50_ms.high", lat_ms [ high_u ] 0.50, "ms");
    ("trace.peak_ops_s", ops_s peak_t, "ops/s");
    ("trace.lat_p50_ms.low", p50 low_t, "ms");
    ("trace.overhead_peak_pct", -.pct (ops_s peak_u) (ops_s peak_t), "%");
    ("trace.overhead_lat_p50_low_pct", pct (p50 low_u) (p50 low_t), "%");
  ]

let json_num x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else failwith "non-finite metric"

let () =
  refuse_runparam ();
  let wl, seed, seconds, traced, plant = parse_args () in
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = gc_minor_heap_words; space_overhead = gc_space_overhead };
  let gc = Gc.get () in
  Printf.printf "workload %s seed %d seconds %d trace %d\n" wl.name seed seconds
    (if traced then 1 else 0);
  Printf.printf "gc: minor_heap_size=%d words space_overhead=%d (pinned; OCAMLRUNPARAM unset)\n"
    gc.Gc.minor_heap_size gc.Gc.space_overhead;
  Printf.printf "servers: 3 EZK replicas over loopback TCP, preprocess_cost=%s read_cost=%s\n%!"
    (Format.asprintf "%a" Sim_time.pp server_config.preprocess_cost)
    (Format.asprintf "%a" Sim_time.pp server_config.read_cost);
  let tracer =
    if not traced then None
    else
      Some
        {
          sp = Spans.create ~kinds:span_kinds ~cap:span_cap;
          msgs =
            { propose = 0; entries = 0; ack = 0; commit = 0; ping = 0; forward = 0;
              watch_events = 0 };
        }
  in
  (* One deployment: a fresh cluster, generator and check state. *)
  let deployment i ~seconds =
    Gc.full_major () (* the previous deployment is garbage now *);
    let g = make_gen ~seed ~index:i wl in
    let t = now_ns () in
    let d = deploy ~seed:(seed + i) ~tracer ~index:i ~attempt:0 g wl in
    let setup_s = float_of_int (now_ns () - t) /. 1e9 in
    let c = make_checks ~plant wl in
    if plant = Plant_decode && i = 0 then send_garbage_frame d;
    (setup_s, { d; g; wl; c; seconds })
  in
  let finish r =
    final_checks r.d r.g r.wl r.c;
    Tcp.shutdown r.d.hub;
    r.c
  in
  let metrics, checks =
    match tracer with
    | None ->
        let each = float_of_int seconds /. float_of_int deployments in
        let runs =
          List.init deployments (fun i ->
              Printf.printf "deployment %d:\n%!" i;
              let setup_s, r = deployment i ~seconds:each in
              let f = plain_phases r ~setup_s in
              (f, finish r))
        in
        (plain_metrics wl (List.map fst runs), List.map snd runs)
    | Some tr ->
        let _, r = deployment 0 ~seconds:(float_of_int seconds) in
        let m = traced_run r tr ~seed in
        (m, [ finish r ])
  in
  List.iter (fun (n, v, u) -> Printf.printf "%-40s %14.4f %s\n" n v u) metrics;
  let sum f = List.fold_left (fun a c -> a + f c) 0 checks in
  let attempted = sum (fun c -> c.attempted) and failed = sum (fun c -> c.failed) in
  let timeouts = sum (fun c -> c.timeouts) in
  let messages = List.concat_map (fun c -> List.rev c.messages) checks in
  Printf.printf "error_rate %.6f (%d failed of %d attempted, %d timeouts)\n"
    (float_of_int failed /. float_of_int (max 1 attempted))
    failed attempted timeouts;
  let correct = sum (fun c -> c.errors) = 0 in
  if correct then print_endline "checks: ok"
  else List.iter (Printf.printf "check failed: %s\n") messages;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_num v) u)
          metrics));
  exit (if correct then 0 else 1)
