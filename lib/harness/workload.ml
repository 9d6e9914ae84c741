(** Closed-loop stress workload, as in §6: each client continuously invokes
    the operation under test with at most one request pending at a time.
    Measurements are confined to a steady-state window after a warm-up
    phase; client byte counts are snapshotted at the window edges so the
    "data sent by client" metric matches the paper's per-operation cost. *)

open Edc_simnet
open Edc_recipes

type results = {
  ops : int;  (** operations completed inside the window *)
  errors : int;
  duration : Sim_time.t;
  throughput : float;  (** ops per second of simulated time *)
  mean_latency_ms : float;
  p99_latency_ms : float;
  client_bytes : int;  (** bytes sent by measured clients inside the window *)
  kb_per_op : float;
  attempts_per_op : float;  (** retry amplification (1.0 = no retries) *)
}

type spec = {
  n_clients : int;
  warmup : Sim_time.t;
  measure : Sim_time.t;
  setup : Coord_api.t -> unit;
      (** run once by an admin client before the stress clients start *)
  prepare : Coord_api.t -> unit;  (** per-client setup (e.g. acknowledge) *)
  op : Coord_api.t -> (int, string) result;
      (** one closed-loop iteration; returns the number of attempts *)
  ops_per_iteration : int;
      (** operations completed per iteration (the queue workload pairs an
          add with a remove, §6.1.2) *)
}

type window = { start : Sim_time.t; stop : Sim_time.t }

let window sim ~warmup ~measure =
  let start = Sim_time.add (Sim.now sim) warmup in
  { start; stop = Sim_time.add start measure }

(** [repeat sim ~until f] runs [f] back to back while the clock is
    before [until]. *)
let repeat sim ~until f =
  let rec loop () =
    if Sim_time.(Sim.now sim < until) then begin
      f ();
      loop ()
    end
  in
  loop ()

(** [closed_loop sim w op record] invokes [op] back to back until [w.stop];
    [record outcome ms] sees every invocation that started at or after
    [w.start] and returned by [w.stop], with its latency in ms. *)
let closed_loop sim w op record =
  repeat sim ~until:w.stop (fun () ->
      let t0 = Sim.now sim in
      let outcome = op () in
      let t1 = Sim.now sim in
      if Sim_time.(w.start <= t0) && Sim_time.(t1 <= w.stop) then
        record outcome (Sim_time.to_float_ms (Sim_time.sub t1 t0)))

(** [run ?wrap_api sys spec] drives the workload and returns windowed
    results.  [wrap_api] decorates each stress client's API before use —
    the hook the linearizability checker's {!Edc_checker.Instrument}
    plugs into (the admin client is not wrapped: setup precedes the
    recorded history).  Deterministic for a fixed simulator seed. *)
let run ?(wrap_api = fun api -> api) (sys : Systems.t) spec =
  let sim = sys.Systems.sim in
  let w = window sim ~warmup:spec.warmup ~measure:spec.measure in
  let ops = ref 0 and errors = ref 0 and attempts = ref 0 in
  let latencies = Stats.Series.create () in
  let client_addrs = ref [] in
  let bytes_at_start = ref 0 in
  let bytes_at_end = ref 0 in
  let setup_done = Proc.promise sim in
  (* admin client performs the global setup *)
  Proc.spawn sim (fun () ->
      let api, _ = sys.Systems.new_api () in
      spec.setup api;
      Proc.fulfill setup_done ());
  (* snapshot byte counters at the window edges *)
  Sim.schedule_at sim ~at:w.start (fun () ->
      bytes_at_start :=
        List.fold_left (fun acc a -> acc + sys.Systems.bytes_sent_by a) 0 !client_addrs);
  Sim.schedule_at sim ~at:w.stop (fun () ->
      bytes_at_end :=
        List.fold_left (fun acc a -> acc + sys.Systems.bytes_sent_by a) 0 !client_addrs);
  (* stress clients *)
  for _ = 1 to spec.n_clients do
    Proc.spawn sim (fun () ->
        Proc.await setup_done;
        let api, addr = sys.Systems.new_api () in
        let api = wrap_api api in
        client_addrs := addr :: !client_addrs;
        spec.prepare api;
        closed_loop sim w
          (fun () -> spec.op api)
          (fun outcome ms ->
            match outcome with
            | Ok n ->
                ops := !ops + spec.ops_per_iteration;
                attempts := !attempts + n;
                Stats.Series.add latencies ms
            | Error _ -> incr errors))
  done;
  (* drain: run a little past the window so in-flight calls settle *)
  Sim.run ~until:(Sim_time.add w.stop (Sim_time.sec 10)) sim;
  (* replication safety: the state machines must never have skipped an
     inconsistent apply *)
  (let a = sys.Systems.anomalies () in
   if a > 0 then failwith (Printf.sprintf "replication anomalies detected: %d" a));
  let client_bytes = !bytes_at_end - !bytes_at_start in
  {
    ops = !ops;
    errors = !errors;
    duration = spec.measure;
    throughput = float_of_int !ops /. Sim_time.to_float_s spec.measure;
    mean_latency_ms = Stats.Series.mean latencies;
    p99_latency_ms = Stats.Series.p99 latencies;
    client_bytes;
    kb_per_op =
      (if !ops = 0 then 0.0
       else float_of_int client_bytes /. 1024.0 /. float_of_int !ops);
    attempts_per_op =
      (if !ops = 0 then 0.0 else float_of_int !attempts /. float_of_int !ops);
  }
