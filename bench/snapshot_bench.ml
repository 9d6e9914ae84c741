(* Snapshot pipeline benchmarks (PR: COW snapshots, lazy serialization,
   chunked state transfer).

   Four experiments, results in BENCH_snapshot.json, grouped by clock:
   the first two under "wall_clock" (they differ from run to run), the
   last two under "sim_time" (identical for the same build):
   - capture: wall-clock cost of a copy-on-write [Data_tree.export]
     vs. the eager deep-copy baseline at 10^3..10^5 nodes (the COW
     capture must stay flat — O(1) — while the deep copy grows linearly)
   - pauses: per-operation apply latency distribution while snapshots
     are taken every K transactions, COW vs. eager (the eager mode
     stalls the apply path for the whole copy)
   - catchup: simulated follower catch-up time through the chunked
     state transfer as a function of state size
   - resume: a link cut in the middle of a state transfer, then healed —
     the transfer must resume from the last acknowledged chunk, not
     restart from chunk 0. *)

open Edc_simnet
open Edc_replication
module Dt = Edc_zookeeper.Data_tree
module J = Bench_json

let now_us () = Unix.gettimeofday () *. 1e6

(* ------------------------------------------------------------------ *)
(* Capture latency: COW export vs. eager deep copy                     *)
(* ------------------------------------------------------------------ *)

let build_tree n =
  let t = Dt.create () in
  Dt.apply_create t ~path:"/b" ~data:"" ~ephemeral_owner:None;
  for i = 0 to n - 1 do
    Dt.apply_create t
      ~path:(Printf.sprintf "/b/n%06d" i)
      ~data:(Printf.sprintf "payload-%06d" i)
      ~ephemeral_owner:None
  done;
  t

(* Mean wall-clock microseconds of [f] over [reps] calls. *)
let time_us ~reps f =
  let t0 = now_us () in
  for _ = 1 to reps do
    f ()
  done;
  (now_us () -. t0) /. float_of_int reps

let capture_experiment ~quick =
  let sizes = [ 1_000; 10_000; 100_000 ] in
  Printf.printf "\n  capture latency (wall clock):\n";
  Printf.printf "  %9s %14s %14s %10s\n" "nodes" "cow us" "eager us" "ratio";
  let rows =
    List.map
      (fun n ->
        let t = build_tree n in
        let cow_reps = if quick then 200 else 1_000 in
        let eager_reps = if n >= 100_000 then 3 else if quick then 5 else 20 in
        let cow_us =
          time_us ~reps:cow_reps (fun () -> Dt.release (Dt.export t))
        in
        let eager_us =
          time_us ~reps:eager_reps (fun () -> ignore (Dt.export_eager t))
        in
        let ratio = if cow_us > 0. then eager_us /. cow_us else infinity in
        Printf.printf "  %9d %14.2f %14.2f %9.0fx\n%!" n cow_us eager_us ratio;
        (n, cow_us, eager_us, ratio))
      sizes
  in
  let _, cow_small, _, _ = List.hd rows in
  let _, cow_big, _, ratio_big = List.nth rows (List.length rows - 1) in
  (* flat = the COW capture does not grow with the tree (allow generous
     noise: timers at sub-microsecond scales jitter) *)
  let flat = cow_big < 50. || cow_big < 20. *. cow_small in
  let cheap = ratio_big >= 50. in
  Printf.printf "  capture O(1): flat 10^3 -> 10^5 %b, %.0fx cheaper than\n"
    flat ratio_big;
  Printf.printf "  deep copy at 10^5 nodes (>= 50x required: %b)\n" cheap;
  let json =
    J.List
      (List.map
         (fun (n, c, e, r) ->
           J.Obj
             [
               ("nodes", J.Int n);
               ("cow_capture_us", J.Float c);
               ("eager_capture_us", J.Float e);
               ("eager_over_cow", J.Float r);
             ])
         rows)
  in
  (json, flat && cheap)

(* ------------------------------------------------------------------ *)
(* Apply-path pause distribution with and without COW                  *)
(* ------------------------------------------------------------------ *)

let pause_run ~nodes ~ops ~every mode =
  let t = build_tree nodes in
  let series = Stats.Series.create () in
  let held = ref None in
  let snap () =
    match mode with
    | `Cow ->
        Option.iter Dt.release !held;
        held := Some (Dt.export t)
    | `Eager -> ignore (Dt.export_eager t)
  in
  for k = 0 to ops - 1 do
    let t0 = now_us () in
    if k mod every = 0 then snap ();
    Dt.apply_set t
      ~path:(Printf.sprintf "/b/n%06d" (k mod nodes))
      ~data:(Printf.sprintf "v%d" k) ~version:(-1);
    Stats.Series.add series (now_us () -. t0)
  done;
  Option.iter Dt.release !held;
  series

let pause_experiment ~quick =
  let nodes = if quick then 5_000 else 20_000 in
  let ops = if quick then 5_000 else 20_000 in
  let every = 1_000 in
  Printf.printf
    "\n  apply-path pauses (wall clock; %d ops on %d nodes, snapshot every %d):\n" ops
    nodes every;
  Printf.printf "  %8s %10s %10s %10s\n" "mode" "p50 us" "p99 us" "max us";
  let row mode name =
    let s = pause_run ~nodes ~ops ~every mode in
    Printf.printf "  %8s %10.2f %10.2f %10.1f\n%!" name
      (Stats.Series.median s) (Stats.Series.p99 s) (Stats.Series.max s);
    J.Obj
      [
        ("mode", J.Str name);
        ("p50_us", J.Float (Stats.Series.median s));
        ("p99_us", J.Float (Stats.Series.p99 s));
        ("max_us", J.Float (Stats.Series.max s));
      ]
  in
  let cow = row `Cow "cow" in
  let eager = row `Eager "eager" in
  J.List [ cow; eager ]

(* ------------------------------------------------------------------ *)
(* Zab harness (mirrors the replication tests)                         *)
(* ------------------------------------------------------------------ *)

type cluster = {
  sim : Sim.t;
  net : string Zab.msg Net.t;
  replicas : string Zab.t array;
  mutable delivered : (Zab.zxid * string) list array;  (* newest first *)
}

let make_cluster ?zab_config ?(seed = 7) () =
  let n = 3 in
  let sim = Sim.create ~seed () in
  let net = Net.create sim in
  let peers = List.init n Fun.id in
  let delivered = Array.make n [] in
  let send_from i ~dst msg =
    Net.send net ~src:i ~dst
      ~size:(Zab.msg_size ~payload_size:String.length msg)
      msg
  in
  let replicas =
    Array.init n (fun i ->
        Zab.create ?config:zab_config ~sim ~id:i ~peers ~send:(send_from i)
          ~on_deliver:(fun zxid p -> delivered.(i) <- (zxid, p) :: delivered.(i))
          ~initial_leader:0 ())
  in
  Array.iteri
    (fun i r ->
      Net.register net i (fun ~src ~size:_ msg -> Zab.handle r ~src msg);
      Zab.start r)
    replicas;
  { sim; net; replicas; delivered }

let run_for c d = Sim.run ~until:(Sim_time.add (Sim.now c.sim) d) c.sim

let hist_encode (hist : (Zab.zxid * string) list) =
  Edc_wire.Wire.encode
    (Edc_wire.Wire.List
       (List.map
          (fun ((z : Zab.zxid), s) ->
            Edc_wire.Wire.(List [ Int z.epoch; Int z.counter; Str s ]))
          hist))

let hist_decode blob : ((Zab.zxid * string) list, string) result =
  let module R = Edc_wire.Wire.Reader in
  R.run blob (fun r ->
      R.list r (fun r ->
          R.begin_list r;
          let epoch = R.int r in
          let counter = R.int r in
          let s = R.str r in
          R.end_list r;
          ({ Zab.epoch; counter }, s)))

let compact_survivors c ids =
  List.iter
    (fun i ->
      Zab.compact c.replicas.(i) ~take:(fun () ->
          let hist = c.delivered.(i) in
          fun () -> hist_encode hist))
    ids

let arm_install c i =
  Zab.set_install_snapshot c.replicas.(i) (fun blob ->
      Result.map (fun h -> c.delivered.(i) <- h) (hist_decode blob))

(* Run until [pred] holds, in [step]-sized slices, at most [limit]. *)
let run_until c ~step ~limit pred =
  let deadline = Sim_time.add (Sim.now c.sim) limit in
  let rec go () =
    if pred () then true
    else if Sim_time.compare (Sim.now c.sim) deadline >= 0 then false
    else begin
      run_for c step;
      go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Follower catch-up time vs. state size                               *)
(* ------------------------------------------------------------------ *)

let catchup_one ~entries ~payload_bytes =
  let c = make_cluster () in
  run_for c (Sim_time.ms 10);
  Zab.crash c.replicas.(2);
  Net.set_node_down c.net 2;
  let payload = String.make payload_bytes 'x' in
  for k = 1 to entries do
    ignore (Zab.propose c.replicas.(0) (Printf.sprintf "%06d%s" k payload)
        : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  compact_survivors c [ 0; 1 ];
  arm_install c 2;
  Net.set_node_up c.net 2;
  Zab.restart c.replicas.(2);
  let t0 = Sim.now c.sim in
  let caught_up () = List.length c.delivered.(2) >= entries in
  let ok =
    run_until c ~step:(Sim_time.ms 10) ~limit:(Sim_time.sec 30) caught_up
  in
  let stats = Zab.xfer_stats c.replicas.(0) in
  let catchup_ms =
    Sim_time.to_float_ms (Sim_time.sub (Sim.now c.sim) t0)
  in
  (ok, catchup_ms, stats.Zab.bytes_streamed, stats.Zab.chunks_sent)

let catchup_experiment ~quick =
  let sizes = if quick then [ 50; 200 ] else [ 50; 200; 800 ] in
  Printf.printf "\n  follower catch-up through chunked transfer (sim time):\n";
  Printf.printf "  %8s %12s %12s %8s\n" "entries" "catchup ms" "bytes" "chunks";
  let rows =
    List.map
      (fun entries ->
        let ok, ms, bytes, chunks = catchup_one ~entries ~payload_bytes:256 in
        Printf.printf "  %8d %12.1f %12d %8d%s\n%!" entries ms bytes chunks
          (if ok then "" else "  (DID NOT CATCH UP)");
        (entries, ok, ms, bytes, chunks))
      sizes
  in
  let all_ok = List.for_all (fun (_, ok, _, _, _) -> ok) rows in
  let json =
    J.List
      (List.map
         (fun (entries, ok, ms, bytes, chunks) ->
           J.Obj
             [
               ("entries", J.Int entries);
               ("caught_up", J.Bool ok);
               ("catchup_ms", J.Float ms);
               ("bytes_streamed", J.Int bytes);
               ("chunks_sent", J.Int chunks);
             ])
         rows)
  in
  (json, all_ok)

(* ------------------------------------------------------------------ *)
(* Mid-transfer link cut + heal: resume from the last acked chunk      *)
(* ------------------------------------------------------------------ *)

let resume_experiment () =
  Printf.printf "\n  mid-transfer link kill + heal (sim time):\n";
  (* tiny chunks so the transfer spans many round trips and the cut lands
     mid-flight deterministically *)
  let zab_config =
    { Zab.default_config with snapshot_chunk_size = 512; snapshot_window = 2 }
  in
  let c = make_cluster ~zab_config () in
  run_for c (Sim_time.ms 10);
  Zab.crash c.replicas.(2);
  Net.set_node_down c.net 2;
  let payload = String.make 256 'y' in
  let entries = 400 in
  for k = 1 to entries do
    ignore (Zab.propose c.replicas.(0) (Printf.sprintf "%06d%s" k payload)
        : Zab.zxid option)
  done;
  run_for c (Sim_time.sec 1);
  compact_survivors c [ 0; 1 ];
  arm_install c 2;
  Net.set_node_up c.net 2;
  Zab.restart c.replicas.(2);
  (* summed over replicas: the cut below outlasts the election timeout, so
     the resume is performed by whichever replica leads afterwards *)
  let stat f =
    Array.fold_left (fun acc r -> acc + f (Zab.xfer_stats r)) 0 c.replicas
  in
  let stat_max f =
    Array.fold_left
      (fun acc r -> Stdlib.max acc (f (Zab.xfer_stats r)))
      0 c.replicas
  in
  (* let the transfer start and make some progress... *)
  let started () =
    stat (fun s -> s.Zab.transfers_started) > 0
    && stat (fun s -> s.Zab.chunks_sent) > 8
  in
  let started_ok =
    run_until c ~step:(Sim_time.ms 1) ~limit:(Sim_time.sec 5) started
  in
  let installed () =
    stat (fun s -> s.Zab.installs) > 0 || List.length c.delivered.(2) > 0
  in
  let cut_mid_flight = started_ok && not (installed ()) in
  (* ...then kill the leader-follower link mid-transfer.  The cut outlasts
     the election timeout: the orphaned follower forces a leader change,
     and the new leader -- whose deterministic serialization produced a
     byte-identical blob, verified by the digest in [Snapshot_begin] --
     must continue from the follower's last acknowledged chunk instead of
     restarting at 0. *)
  Net.cut_link c.net 0 2;
  run_for c (Sim_time.sec 1);
  Net.heal_link c.net 0 2;
  let caught_up () = List.length c.delivered.(2) >= entries in
  let completed =
    run_until c ~step:(Sim_time.ms 10) ~limit:(Sim_time.sec 30) caught_up
  in
  let resumes = stat (fun s -> s.Zab.resumes) in
  let resume_from = stat_max (fun s -> s.Zab.last_resume_from) in
  let retx = stat (fun s -> s.Zab.chunk_retx) in
  let resumed = resumes > 0 && resume_from > 0 in
  Printf.printf "  cut mid-flight: %b; transfer completed: %b\n"
    cut_mid_flight completed;
  Printf.printf
    "  resumed from chunk %d (resumes %d, retransmits %d) -- no restart\n\
    \  from chunk 0: %b\n"
    resume_from resumes retx resumed;
  let json =
    J.Obj
      [
        ("cut_mid_flight", J.Bool cut_mid_flight);
        ("completed", J.Bool completed);
        ("resumed_from_chunk", J.Int resume_from);
        ("resumes", J.Int resumes);
        ("chunk_retransmits", J.Int retx);
        ("chunks_sent", J.Int (stat (fun s -> s.Zab.chunks_sent)));
        ("installs", J.Int (stat (fun s -> s.Zab.installs)));
      ]
  in
  (json, cut_mid_flight && completed && resumed)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let run ~quick =
  let capture_json, capture_ok = capture_experiment ~quick in
  let pause_json = pause_experiment ~quick in
  let catchup_json, catchup_ok = catchup_experiment ~quick in
  let resume_json, resume_ok = resume_experiment () in
  J.write_suite ~suite:"snapshot"
    [
      ("wall_clock", J.Obj [ ("capture", capture_json); ("pauses", pause_json) ]);
      ("sim_time", J.Obj [ ("catchup", catchup_json); ("resume", resume_json) ]);
      ("capture_o1_ok", J.Bool capture_ok);
      ("catchup_ok", J.Bool catchup_ok);
      ("resume_ok", J.Bool resume_ok);
    ];
  if not (capture_ok && catchup_ok && resume_ok) then begin
    Printf.printf "SNAPSHOT BENCH FAILED ACCEPTANCE CHECKS\n";
    exit 1
  end
