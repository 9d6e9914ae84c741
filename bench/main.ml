(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6), plus ablations and Bechamel micro-benchmarks of the
   core extension machinery.

   Usage:
     bench/main.exe [targets] [--quick] [--trace]
   where targets ⊆ {table1 table2 fig6 fig8 fig10 fig12 fig13 overhead
                    ablation batching snapshot chaos membership linearize
                    reads micro wire all};
   default: all.  [--trace] turns on the debug simulation trace (stderr) —
   CI greps it to prove protocol-level invariants, e.g. that no observer
   replica ever casts a vote. *)

open Edc_simnet
open Edc_harness
module E = Experiment
module S = Systems

type config = { clients : int list; paired : int list; warmup : Sim_time.t; measure : Sim_time.t }

let full_config =
  {
    clients = E.default_client_counts;
    paired = E.paired_client_counts;
    warmup = Sim_time.sec 1;
    measure = Sim_time.sec 2;
  }

let quick_config =
  {
    clients = [ 1; 10; 50 ];
    paired = [ 2; 10; 50 ];
    warmup = Sim_time.ms 500;
    measure = Sim_time.sec 1;
  }

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_<suite>.json, schema in EXPERIMENTS.md) *)
(* ------------------------------------------------------------------ *)

let json_of_point (p : E.point) =
  Bench_json.Obj
    [
      ("system", Bench_json.Str (S.kind_name p.E.kind));
      ("clients", Bench_json.Int p.E.clients);
      ("throughput_ops_s", Bench_json.Float p.E.throughput);
      ("latency_ms", Bench_json.Float p.E.latency_ms);
      ("p99_ms", Bench_json.Float p.E.p99_ms);
      ("kb_per_op", Bench_json.Float p.E.kb_per_op);
      ("attempts", Bench_json.Float p.E.attempts);
      ("errors", Bench_json.Int p.E.errors);
    ]

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

(* One figure of §6.1: [point] over every system and client count, one
   metric table per [(title, unit, getter)], then optionally the
   extensible-vs-traditional speedups at the largest client count and the
   BENCH_<suite>.json points. *)
let figure ~title ~clients ?speedup ?suite point tables =
  let points =
    Report.figure_points ~title ~clients ~systems:S.all ~point_fn:point
  in
  List.iter
    (fun (title, unit, get) ->
      Report.metric_table ~title ~unit ~clients ~systems:S.all
        ~value:(fun k n -> Report.lookup points k n get))
    tables;
  Option.iter
    (fun what ->
      let top = List.fold_left max 1 clients in
      print_newline ();
      List.iter
        (fun (base, ext) ->
          Report.summarize_speedup points ~clients:top ~base ~ext ~what)
        [ (S.Zookeeper, S.Ezk); (S.Depspace, S.Eds) ])
    speedup;
  Option.iter
    (fun suite ->
      Bench_json.write_suite ~suite
        [ ("points", Bench_json.List (List.map json_of_point points)) ])
    suite

let throughput = ("Average throughput", "ops/s", fun p -> p.E.throughput)

let fig6 cfg =
  figure ~title:"Figure 6: shared-counter recipe (throughput and latency)"
    ~clients:cfg.clients ~speedup:"Counter" ~suite:"counter"
    (E.counter_point ~warmup:cfg.warmup ~measure:cfg.measure)
    [
      throughput;
      ("Average latency", "ms", fun p -> p.E.latency_ms);
      ("Attempts per successful increment", "tries", fun p -> p.E.attempts);
    ]

let fig8 cfg =
  figure ~title:"Figure 8: distributed queue (throughput and client data)"
    ~clients:cfg.clients ~speedup:"Queue" ~suite:"queue"
    (E.queue_point ~warmup:cfg.warmup ~measure:cfg.measure)
    [ throughput; ("Avg. data sent by client", "KB/op", fun p -> p.E.kb_per_op) ]

let fig10 cfg =
  figure ~title:"Figure 10: distributed barrier (latency and client data)"
    ~clients:cfg.paired E.barrier_point
    [
      ("Average latency per enter", "ms", fun p -> p.E.latency_ms);
      ("Avg. data sent by clients", "KB/op", fun p -> p.E.kb_per_op);
    ]

let fig12 cfg =
  figure
    ~title:"Figure 12: leader election (changes/s and signaling latency)"
    ~clients:cfg.paired
    (E.election_point ~warmup:cfg.warmup ~measure:cfg.measure)
    [
      ("Average throughput (leader changes)", "ops/s", fun p -> p.E.throughput);
      ("Average signaling latency", "ms", fun p -> p.E.latency_ms);
    ]

let fig13 cfg =
  Report.section
    "Figure 13: impact of the queue extension on regular clients (15 readers + 15 writers, 256-byte objects)";
  List.iter
    (fun kind ->
      Printf.printf "\n%s:\n%10s %18s %14s %14s\n" (S.kind_name kind)
        "queue cl." "queue ops/s" "read ms" "write ms";
      List.iter
        (fun n ->
          let p =
            E.fig13_point ~warmup:cfg.warmup ~measure:cfg.measure kind n
          in
          Printf.printf "%10d %18.0f %14.3f %14.3f\n%!" n
            p.E.f13_queue_throughput p.E.f13_read_ms p.E.f13_write_ms)
        cfg.clients)
    [ S.Ezk; S.Eds ]

let overhead cfg =
  Report.section
    "Section 6.2: extensibility overhead on regular operations (no extension triggered)";
  let points =
    List.map
      (fun kind ->
        let p = E.overhead_point ~warmup:cfg.warmup ~measure:cfg.measure kind in
        Printf.printf "  %-10s read %.4f ms   write %.4f ms\n%!"
          (S.kind_name kind) p.E.oh_read_ms p.E.oh_write_ms;
        p)
      S.all
  in
  let get kind f =
    match List.find_opt (fun p -> p.E.oh_kind = kind) points with
    | Some p -> f p
    | None -> nan
  in
  let delta what base ext f =
    let b = get base f and e = get ext f in
    Printf.printf "  %s overhead %s vs %s: %+.2f%%\n" what (S.kind_name ext)
      (S.kind_name base)
      ((e -. b) /. b *. 100.0)
  in
  print_newline ();
  delta "read" S.Zookeeper S.Ezk (fun p -> p.E.oh_read_ms);
  delta "write" S.Zookeeper S.Ezk (fun p -> p.E.oh_write_ms);
  delta "read" S.Depspace S.Eds (fun p -> p.E.oh_read_ms);
  delta "write" S.Depspace S.Eds (fun p -> p.E.oh_write_ms);
  Printf.printf "  (paper reports < 0.4%% for regular operations)\n"

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md §6)                                            *)
(* ------------------------------------------------------------------ *)

let ablation cfg =
  Report.section "Ablation 1: geo-distribution (WAN latency, cf. §6.3)";
  let n = List.fold_left max 1 cfg.clients in
  List.iter
    (fun (label, net_config) ->
      let zk =
        E.counter_point ?net_config ~warmup:cfg.warmup ~measure:cfg.measure
          S.Zookeeper n
      in
      let ezk =
        E.counter_point ?net_config ~warmup:cfg.warmup ~measure:cfg.measure
          S.Ezk n
      in
      Printf.printf
        "  %-4s counter @%d clients: ZooKeeper %7.0f ops/s, EZK %7.0f ops/s -> %.0fx\n%!"
        label n zk.E.throughput ezk.E.throughput
        (ezk.E.throughput /. zk.E.throughput))
    [ ("LAN", None); ("WAN", Some Net.wan_config) ];
  Printf.printf
    "  (the extension advantage grows with network distance, as §6.3 predicts)\n";

  Report.section "Ablation 2: extension granularity (batched counter increments)";
  let batch_program k =
    let open Edc_core.Ast in
    Edc_core.Program.make "ctr-increment"
      ~op_subs:
        [ { Edc_core.Subscription.op_kinds = [ Edc_core.Subscription.K_read ];
            op_oid = Edc_core.Subscription.Exact "/ctr-increment" } ]
      ~on_operation:
        [
          Let ("c", Call ("int_of_str", [ Field (Svc (Svc_read, [ Str_lit "/ctr" ]), "data") ]));
          Do (Svc (Svc_update, [ Str_lit "/ctr"; Call ("str_of_int", [ Binop (Add, Var "c", Int_lit k) ]) ]));
          Return (Binop (Add, Var "c", Int_lit k));
        ]
      ()
  in
  List.iter
    (fun k ->
      let sim = Sim.create ~seed:42 () in
      let sys = S.make S.Ezk sim in
      let r =
        Workload.run sys
          {
            Workload.n_clients = n;
            warmup = cfg.warmup;
            measure = cfg.measure;
            ops_per_iteration = k;
            setup =
              (fun api ->
                (match Edc_recipes.Counter.setup api with
                | Ok () -> ()
                | Error e -> failwith e);
                match
                  (Edc_recipes.Coord_api.ext_exn api).Edc_recipes.Coord_api.register
                    (batch_program k)
                with
                | Ok () -> ()
                | Error e -> failwith e);
            prepare =
              (fun api ->
                match
                  (Edc_recipes.Coord_api.ext_exn api).Edc_recipes.Coord_api.acknowledge
                    "ctr-increment"
                with
                | Ok () -> ()
                | Error e -> failwith e);
            op =
              (fun api ->
                match
                  (Edc_recipes.Coord_api.ext_exn api).Edc_recipes.Coord_api.invoke_read
                    "/ctr-increment"
                with
                | Ok _ -> Ok 1
                | Error e -> Error e);
          }
      in
      Printf.printf "  batch=%3d: %9.0f increments/s (%.0f RPC/s)\n%!" k
        r.Workload.throughput
        (r.Workload.throughput /. float_of_int k))
    [ 1; 10; 100 ];

  Report.section "Ablation 3: sandbox step budget vs queue-extension survival";
  let run_with_default_budget () =
    (* the default cap must not harm an in-budget run: a queue with many
       elements makes subObjects iteration larger *)
    let sim = Sim.create ~seed:7 () in
    let cluster = Edc_ezk.Ezk_cluster.create sim in
    let outcome = ref "?" in
    Proc.spawn sim (fun () ->
        let c = Edc_zookeeper.Cluster.connected_client (Edc_ezk.Ezk_cluster.cluster cluster) () in
        let api = Edc_recipes.Coord_zk.of_client ~extensible:true c in
        (match Edc_recipes.Queue.setup api with Ok () -> () | Error e -> failwith e);
        (match Edc_recipes.Queue.register api with Ok () -> () | Error e -> failwith e);
        for i = 1 to 40 do
          match Edc_recipes.Queue.add api ~eid:(Edc_recipes.Queue.make_eid api i) ~data:"x" with
          | Ok () -> ()
          | Error e -> failwith e
        done;
        match Edc_recipes.Queue.remove_ext api with
        | Ok _ -> outcome := "ok"
        | Error e -> outcome := "rejected: " ^ e);
    Sim.run ~until:(Sim_time.sec 30) sim;
    !outcome
  in
  (* budget control is in Manager/Sandbox limits; demonstrated directly *)
  let mock_run limits =
    let proxy, store = Micro.mock_proxy () in
    for i = 1 to 40 do
      Hashtbl.replace store (Printf.sprintf "/queue/e%02d" i) ("x", 0, i)
    done;
    match
      Edc_core.Sandbox.run ~limits ~proxy ~params:[]
        (Option.get Edc_recipes.Queue.program.Edc_core.Program.on_operation)
    with
    | Ok _ -> "ok"
    | Error e -> "rejected: " ^ Edc_core.Sandbox.error_to_string e
  in
  List.iter
    (fun steps ->
      Printf.printf "  max_steps=%5d -> %s\n" steps
        (mock_run { Edc_core.Sandbox.default_limits with max_steps = steps }))
    [ 16; 64; 4096 ];
  Printf.printf "  full-stack queue extension with default budget: %s\n"
    (run_with_default_budget ());

  Report.section
    "Ablation 4: snapshot state transfer vs full-log replay on recovery";
  let recovery ~snapshot_interval =
    let sim = Sim.create ~seed:51 () in
    let config =
      { Edc_zookeeper.Server.default_config with snapshot_interval }
    in
    let cluster = Edc_zookeeper.Cluster.create ~server_config:config sim in
    let result = ref (0.0, 0) in
    Proc.spawn sim (fun () ->
        let c = Edc_zookeeper.Cluster.connected_client ~replica:0 cluster () in
        (match Edc_zookeeper.Client.create_node c "/data" "" with
        | Ok _ -> ()
        | Error e -> failwith (Edc_zookeeper.Zerror.to_string e));
        Edc_zookeeper.Cluster.crash_server cluster 2;
        for i = 1 to 800 do
          match
            Edc_zookeeper.Client.create_node c
              (Printf.sprintf "/data/n%04d" i)
              (String.make 64 'x')
          with
          | Ok _ -> ()
          | Error e -> failwith (Edc_zookeeper.Zerror.to_string e)
        done;
        let bytes_before =
          Net.bytes_received_by (Edc_zookeeper.Cluster.net cluster) 2
        in
        let t0 = Sim.now sim in
        Edc_zookeeper.Cluster.restart_server cluster 2;
        let target =
          Edc_zookeeper.Data_tree.node_count
            (Edc_zookeeper.Server.tree (Edc_zookeeper.Cluster.servers cluster).(0))
        in
        let rec wait () =
          if
            Edc_zookeeper.Data_tree.node_count
              (Edc_zookeeper.Server.tree
                 (Edc_zookeeper.Cluster.servers cluster).(2))
            < target
          then begin
            Proc.sleep sim (Sim_time.ms 10);
            wait ()
          end
        in
        wait ();
        let elapsed = Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0) in
        let bytes =
          Net.bytes_received_by (Edc_zookeeper.Cluster.net cluster) 2
          - bytes_before
        in
        result := (elapsed, bytes));
    Sim.run ~until:(Sim_time.sec 120) sim;
    !result
  in
  let t_log, b_log = recovery ~snapshot_interval:0 in
  let t_snap, b_snap = recovery ~snapshot_interval:50 in
  Printf.printf
    "  full-log replay : replica caught up in %7.1f ms, receiving %7d bytes\n"
    t_log b_log;
  Printf.printf
    "  snapshot install: replica caught up in %7.1f ms, receiving %7d bytes\n"
    t_snap b_snap;
  Printf.printf
    "  (both transfer the full state once here; the snapshot path also\n\
    \   bounds the leader's log memory and, with deltas dominated by the\n\
    \   retained suffix, stays O(state) instead of O(history))\n"


(* ------------------------------------------------------------------ *)
(* Batching ablation (tentpole of the group-commit PR)                  *)
(* ------------------------------------------------------------------ *)

let batching cfg =
  Report.section
    "Ablation 5: replication group commit (proposal batch size vs throughput)";
  let n = List.fold_left max 1 cfg.clients in
  let sizes = [ 1; 8; 32; 128 ] in
  (* The serial per-batch agreement cost (the leader's transaction-log
     fsync / the BFT proposer's per-instance work) is held fixed; only the
     batch size varies, so the measured gain is pure group-commit
     amortization.  batch=1 is the unbatched baseline: one agreement round
     per operation. *)
  let sync_cost = Sim_time.us 400 in
  let batch_config k =
    Edc_replication.Batching.group_commit ~max_batch:k ~sync_cost ()
  in
  Printf.printf
    "  sync cost fixed at %.0f us per agreement round; %d clients\n"
    (Sim_time.to_float_us sync_cost)
    n;
  let run_workload what point_fn =
    Printf.printf "\n  %s workload:\n%12s" what "batch";
    List.iter (fun s -> Printf.printf " %19s" (S.kind_name s)) S.all;
    Printf.printf "\n%!";
    List.iter
      (fun k ->
        Printf.printf "%12d" k;
        List.iter
          (fun kind ->
            let p = point_fn ~batch:(batch_config k) kind n in
            Printf.printf "  %8.0f op/s %4.1fms" p.E.throughput p.E.latency_ms)
          S.all;
        Printf.printf "\n%!")
      sizes
  in
  run_workload "counter" (fun ~batch kind n ->
      E.counter_point ~batch ~warmup:cfg.warmup ~measure:cfg.measure kind n);
  run_workload "queue" (fun ~batch kind n ->
      E.queue_point ~batch ~warmup:cfg.warmup ~measure:cfg.measure kind n);
  Printf.printf
    "  (throughput rises with batch size because one sync is amortized over\n\
    \   the whole batch; latency stays bounded because group commit\n\
    \   self-clocks: operations arriving during a sync ride the next batch)\n"

(* ------------------------------------------------------------------ *)
(* Chaos: availability under fault injection                           *)
(* ------------------------------------------------------------------ *)

let chaos quick =
  Report.section
    "Chaos: availability under fault injection (counter + queue on resilient sessions)";
  let seeds = if quick then [ 42 ] else [ 42; 43; 44 ] in
  Printf.printf
    "  standard nemesis schedule (crashes, leader kills, partitions,\n\
    \  asymmetric partitions, drop storms); seeds %s on EZK and EDS\n%!"
    (String.concat ", " (List.map string_of_int seeds));
  let points =
    List.concat_map
      (fun kind ->
        List.map
          (fun seed ->
            let p = E.chaos_point ~seed kind in
            Printf.printf "  %-10s seed=%d done\n%!" (S.kind_name kind) seed;
            p)
          seeds)
      [ S.Ezk; S.Eds ]
  in
  Report.availability_table points;
  Report.fault_summary points;
  Report.snapshot_summary points;
  Report.wire_summary points;
  Report.reconfig_summary points;
  Report.error_taxonomy points;
  Report.invariant_failures points;
  Report.fault_trace (List.hd points);
  (* Determinism: the same seed must reproduce the same fault trace. *)
  let p0 = List.hd points in
  let rerun = E.chaos_point ~seed:p0.E.ch_seed p0.E.ch_kind in
  Printf.printf "\nsame-seed rerun reproduces the fault trace: %b\n"
    (String.equal rerun.E.ch_trace p0.E.ch_trace);
  let broken =
    List.exists (fun p -> p.E.ch_invariant_failures <> []) points
  in
  let lkills = List.fold_left (fun a p -> a + p.E.ch_leader_kills) 0 points in
  let healed =
    List.fold_left (fun a p -> a + p.E.ch_partitions_healed) 0 points
  in
  Printf.printf
    "coverage: %d leader kills, %d healed partitions across all runs\n" lkills
    healed;
  if broken || lkills = 0 || healed = 0
     || not (String.equal rerun.E.ch_trace p0.E.ch_trace)
  then begin
    Printf.printf "CHAOS RUN FAILED ACCEPTANCE CHECKS\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Linearizability: WGL checks over captured histories                  *)
(* ------------------------------------------------------------------ *)

module Ck_history = Edc_checker.History
module Ck_wgl = Edc_checker.Wgl
module Instrument = Edc_checker.Instrument
module Counter = Edc_recipes.Counter
module Queue = Edc_recipes.Queue
module Zab = Edc_replication.Zab

(* A partitioned leader keeps accepting writes it cannot commit, so on
   heal it holds a divergent uncommitted tail — the state log matching
   exists to repair.  Used by the mutation demonstration below. *)
let isolation_schedule =
  [
    {
      Nemesis.start = Sim_time.ms 500;
      period = Some (Sim_time.ms 2500);
      action =
        Nemesis.Isolate
          {
            duration = Sim_time.ms 1200;
            victim = Nemesis.Leader;
            asymmetric = false;
          };
    };
  ]

let linearize quick =
  Report.section
    "Linearizability: WGL search over histories captured in the chaos harness";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let assert_verdicts ~what verdicts =
    List.iter
      (fun (obj, v) ->
        if not (Ck_wgl.is_ok v) then begin
          fail "%s: object %s not linearizable" what obj;
          Fmt.pr "    %s %s:@,    %a@." what obj Ck_wgl.pp_verdict v
        end)
      verdicts
  in
  (* 1. Chaos sweeps with the checker on: the captured counter + queue
     histories (including the final verification reads) must admit a
     legal sequential ordering on every seed. *)
  let seeds = if quick then [ 42; 43 ] else [ 42; 43; 44; 45; 46 ] in
  Printf.printf "\n  chaos sweeps (standard schedule, checker on):\n";
  List.iter
    (fun kind ->
      List.iter
        (fun seed ->
          let p = E.chaos_point ~seed kind in
          Printf.printf "  %-10s seed=%d  %5d events  %s\n%!" (S.kind_name kind)
            seed p.E.ch_history_events
            (String.concat "  "
               (List.map
                  (fun (obj, v) -> obj ^ "=" ^ E.verdict_cell v)
                  p.E.ch_lin));
          assert_verdicts
            ~what:(Printf.sprintf "%s seed=%d" (S.kind_name kind) seed)
            p.E.ch_lin)
        seeds)
    [ S.Ezk; S.Eds ];
  (* 2. Healthy stress workloads on every system, history-wrapped via
     Workload.run's checker pass.  Queue elements carry data = eid so
     dequeue responses identify elements exactly. *)
  Printf.printf "\n  healthy stress workloads (checker pass on Workload.run):\n";
  let stress_seconds = if quick then 2 else 5 in
  List.iter
    (fun kind ->
      let extensible = S.is_extensible kind in
      let sim = Sim.create ~seed:11 () in
      let sys = S.make kind sim in
      let history = Ck_history.create ~sim () in
      let iteration = ref 0 in
      let _r =
        Workload.run ~wrap_api:(Instrument.wrap history) sys
          {
            Workload.n_clients = 4;
            warmup = Sim_time.ms 500;
            measure = Sim_time.sec stress_seconds;
            ops_per_iteration = 3;
            setup =
              (fun api ->
                E.fail_on_error "counter setup" (Counter.setup api);
                E.fail_on_error "queue setup" (Queue.setup api);
                if extensible then begin
                  E.fail_on_error "register" (Counter.register api);
                  E.fail_on_error "register" (Queue.register api)
                end);
            prepare =
              (fun api ->
                if extensible then begin
                  E.ack_if_ext api Counter.extension_name;
                  E.ack_if_ext api Queue.extension_name
                end);
            op =
              (fun api ->
                incr iteration;
                let r =
                  if extensible then Counter.increment_ext api
                  else Counter.increment_traditional api
                in
                match r with
                | Error e -> Error e
                | Ok _ -> (
                    let eid = Queue.make_eid api !iteration in
                    match Queue.add api ~eid ~data:eid with
                    | Error e -> Error e
                    | Ok () -> (
                        let r =
                          if extensible then Queue.remove_ext api
                          else Queue.remove_traditional api
                        in
                        match r with Ok _ -> Ok 3 | Error e -> Error e)));
          }
      in
      let verdicts = Ck_wgl.check_objects history in
      Printf.printf "  %-10s %5d events  %s\n%!" (S.kind_name kind)
        (Ck_history.n_events history)
        (String.concat "  "
           (List.map (fun (obj, v) -> obj ^ "=" ^ E.verdict_cell v) verdicts));
      assert_verdicts ~what:(S.kind_name kind ^ " stress") verdicts)
    S.all;
  (* 3. Blocking recipes at recipe granularity: leadership as a mutex,
     barrier rounds as the real-time gate property. *)
  Printf.printf "\n  blocking recipes (leader election + barrier):\n";
  List.iter
    (fun kind ->
      let p = E.lin_recipes_point ~seed:5 kind in
      Printf.printf "  %-10s %5d events  lock=%s  barrier=%s\n%!"
        (S.kind_name kind) p.E.lp_events
        (E.verdict_cell p.E.lp_lock)
        (match p.E.lp_barrier with Ok () -> "ok" | Error _ -> "VIOLATION");
      assert_verdicts ~what:(S.kind_name kind ^ " recipes")
        [ ("lock", p.E.lp_lock) ];
      match p.E.lp_barrier with
      | Ok () -> ()
      | Error e -> fail "%s: barrier gate violated: %s" (S.kind_name kind) e)
    [ S.Ezk; S.Eds ];
  (* 4. The mutation demonstration: re-enable the divergent-tail bug
     (skipped Zab log matching) and demand a conviction with a printed
     counterexample window.  A checker that cannot re-find a known
     consistency bug is not a correctness oracle. *)
  Printf.printf "\n  mutation self-test (unsafe_skip_log_matching = true):\n";
  let zab_config =
    {
      Zab.default_config with
      Zab.unsafe_skip_log_matching = true;
    }
  in
  let mutation_seeds = if quick then [ 42 ] else [ 42; 43; 44 ] in
  let convicted =
    List.find_map
      (fun seed ->
        let p =
          E.chaos_point ~seed ~zab_config ~schedule:isolation_schedule
            ~horizon:(Sim_time.sec 12) S.Ezk
        in
        List.find_map
          (fun (obj, v) ->
            match v with
            | Ck_wgl.Non_linearizable cx -> Some (seed, obj, cx)
            | _ -> None)
          p.E.ch_lin)
      mutation_seeds
  in
  (match convicted with
  | Some (seed, obj, cx) ->
      Fmt.pr "  seed %d convicted object %S:@.  %a@." seed obj
        Ck_wgl.pp_verdict (Ck_wgl.Non_linearizable cx)
  | None ->
      fail
        "mutation NOT caught: no seed produced a non-linearizable verdict");
  if !failures <> [] then begin
    Printf.printf "\nLINEARIZABILITY CHECKS FAILED:\n";
    List.iter (Printf.printf "  - %s\n") (List.rev !failures);
    exit 1
  end
  else Printf.printf "\nall linearizability checks passed\n"

(* ------------------------------------------------------------------ *)
(* Elastic membership: 3 -> 5 -> 3 autoscaling under chaos             *)
(* ------------------------------------------------------------------ *)

let json_of_membership (p : E.membership_point) =
  let c = p.E.mp_run in
  let r = c.E.ch_reconfig in
  let floats fs = Bench_json.List (List.map (fun f -> Bench_json.Float f) fs) in
  Bench_json.Obj
    [
      ("system", Bench_json.Str (S.kind_name c.E.ch_kind));
      ("seed", Bench_json.Int c.E.ch_seed);
      ("ops_ok", Bench_json.Int c.E.ch_ops_ok);
      ("ops_maybe", Bench_json.Int c.E.ch_ops_maybe);
      ("ops_failed", Bench_json.Int c.E.ch_ops_failed);
      ( "members_final",
        Bench_json.List
          (List.map (fun i -> Bench_json.Int i) p.E.mp_members_final) );
      ("grow_ms", floats p.E.mp_grow_ms);
      ("shrink_ms", floats p.E.mp_shrink_ms);
      ("joins_attempted", Bench_json.Int r.Zab.joins_requested);
      ("joins_completed", Bench_json.Int r.Zab.joins_completed);
      ("leaves_attempted", Bench_json.Int r.Zab.leaves_requested);
      ("leaves_completed", Bench_json.Int r.Zab.leaves_completed);
      ("joint_commits", Bench_json.Int r.Zab.joint_commits);
      ("finals_committed", Bench_json.Int r.Zab.finals_committed);
      ("aborted", Bench_json.Int r.Zab.aborted);
      ("fenced", Bench_json.Int r.Zab.fences);
      ("catchup_ms", floats r.Zab.catchup_ms);
      ("reconfig_kills", Bench_json.Int c.E.ch_reconfig_kills);
      ("crashes", Bench_json.Int c.E.ch_crashes);
      ("leader_kills", Bench_json.Int c.E.ch_leader_kills);
      ("steady_ops_s", Bench_json.Float p.E.mp_steady_ops_s);
      ("trough_ops_s", Bench_json.Float p.E.mp_trough_ops_s);
      ("recovery_s", floats p.E.mp_recovery_s);
      ("unrecovered", Bench_json.Int p.E.mp_unrecovered);
      ( "bootstrap_resume_from_chunk",
        Bench_json.Int c.E.ch_snap.S.ss_last_resume_from );
      ("snapshot_resumes", Bench_json.Int c.E.ch_snap.S.ss_resumes);
      ("anomalies", Bench_json.Int c.E.ch_anomalies);
      ( "invariant_failures",
        Bench_json.List
          (List.map (fun s -> Bench_json.Str s) c.E.ch_invariant_failures) );
      ( "linearizability",
        Bench_json.List
          (List.map
             (fun (obj, v) ->
               Bench_json.Obj
                 [
                   ("object", Bench_json.Str obj);
                   ("verdict", Bench_json.of_verdict v);
                 ])
             c.E.ch_lin) );
      ("history_events", Bench_json.Int c.E.ch_history_events);
    ]

let membership quick =
  Report.section
    "Elastic membership: 3 -> 5 -> 3 joint-consensus autoscaling under chaos";
  let seeds = if quick then [ 42; 43; 44 ] else List.init 10 (fun i -> 42 + i) in
  let kinds = if quick then [ S.Ezk ] else [ S.Zookeeper; S.Ezk ] in
  Printf.printf
    "  diurnal writes; joiners bootstrap as learners through the chunked\n\
    \  snapshot transfer (first joiner's links cut mid-bootstrap); from t=8s\n\
    \  a reconfiguration-targeted nemesis kills the leader within 120 ms of\n\
    \  any in-flight config change; seeds %s\n%!"
    (String.concat ", " (List.map string_of_int seeds));
  let points =
    List.concat_map
      (fun kind ->
        List.map
          (fun seed ->
            let p = E.membership_point ~seed kind in
            Printf.printf "  %-10s seed=%d done\n%!" (S.kind_name kind) seed;
            p)
          seeds)
      kinds
  in
  let runs = List.map (fun p -> p.E.mp_run) points in
  Report.membership_table points;
  Report.reconfig_summary runs;
  Report.invariant_failures runs;
  let r0 = List.hd runs in
  Report.fault_trace r0;
  (* Determinism: the same seed must reproduce the same fault trace. *)
  let rerun = E.membership_point ~seed:r0.E.ch_seed r0.E.ch_kind in
  let deterministic = String.equal rerun.E.mp_run.E.ch_trace r0.E.ch_trace in
  Printf.printf "\nsame-seed rerun reproduces the fault trace: %b\n"
    deterministic;
  let broken = List.exists (fun r -> r.E.ch_invariant_failures <> []) runs in
  let violations =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun (obj, v) ->
            match v with
            | Ck_wgl.Non_linearizable _ ->
                Some (S.kind_name r.E.ch_kind, r.E.ch_seed, obj)
            | _ -> None)
          r.E.ch_lin)
      runs
  in
  let kills = List.fold_left (fun a r -> a + r.E.ch_reconfig_kills) 0 runs in
  let unrecovered = List.fold_left (fun a p -> a + p.E.mp_unrecovered) 0 points in
  let worst_recovery =
    List.fold_left
      (fun a p -> List.fold_left Float.max a p.E.mp_recovery_s)
      0.0 points
  in
  Printf.printf
    "coverage: %d mid-reconfig leader kills across all runs; worst throughput\n\
     recovery %.1f s; %d reconfiguration events never returned to 90%% of\n\
     steady state\n"
    kills worst_recovery unrecovered;
  List.iter
    (fun (k, s, obj) ->
      Printf.printf "WGL VIOLATION [%s seed=%d] object %s\n" k s obj)
    violations;
  Bench_json.write_suite ~suite:"membership"
    [ ("runs", Bench_json.List (List.map json_of_membership points)) ];
  if
    broken || violations <> [] || kills = 0 || unrecovered > 0
    || worst_recovery > 8.0 || not deterministic
  then begin
    Printf.printf "MEMBERSHIP RUN FAILED ACCEPTANCE CHECKS\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* §6i: the scale-free read path                                       *)
(* ------------------------------------------------------------------ *)

let json_of_read_scaling (p : E.read_scaling_point) =
  Bench_json.Obj
    [
      ("observers", Bench_json.Int p.E.rp_observers);
      ("clients", Bench_json.Int p.E.rp_clients);
      ("reads", Bench_json.Int p.E.rp_reads);
      ("throughput_ops_s", Bench_json.Float p.E.rp_throughput);
      ("mean_ms", Bench_json.Float p.E.rp_mean_ms);
      ("p99_ms", Bench_json.Float p.E.rp_p99_ms);
      ("observer_reads", Bench_json.Int p.E.rp_observer_reads);
      ( "invariant_failures",
        Bench_json.List
          (List.map (fun s -> Bench_json.Str s) p.E.rp_invariant_failures) );
    ]

let json_of_lease_cost (p : E.lease_cost_point) =
  Bench_json.Obj
    [
      ("leases", Bench_json.Bool p.E.lc_leases);
      ("reads", Bench_json.Int p.E.lc_reads);
      ("lease_reads", Bench_json.Int p.E.lc_lease_reads);
      ("quorum_reads", Bench_json.Int p.E.lc_quorum_reads);
      ("mean_ms", Bench_json.Float p.E.lc_mean_ms);
      ("p99_ms", Bench_json.Float p.E.lc_p99_ms);
      ("bytes_per_read", Bench_json.Float p.E.lc_bytes_per_read);
      ( "invariant_failures",
        Bench_json.List
          (List.map (fun s -> Bench_json.Str s) p.E.lc_invariant_failures) );
    ]

let json_of_stale_read (p : E.stale_read_point) =
  Bench_json.Obj
    [
      ("seed", Bench_json.Int p.E.sr_seed);
      ("unsafe", Bench_json.Bool p.E.sr_unsafe);
      ("violations", Bench_json.Int p.E.sr_violations);
      ( "witnesses",
        Bench_json.List (List.map (fun s -> Bench_json.Str s) p.E.sr_witnesses)
      );
      ("reads_ok", Bench_json.Int p.E.sr_reads_ok);
      ("reads_refused", Bench_json.Int p.E.sr_reads_refused);
      ("writes_ok", Bench_json.Int p.E.sr_writes_ok);
      ("clock_skews", Bench_json.Int p.E.sr_clock_skews);
      ("partitions", Bench_json.Int p.E.sr_partitions);
      ("lease_reads", Bench_json.Int p.E.sr_lease_reads);
    ]

let reads quick =
  Report.section
    "Scale-free read path: observer scaling, leader leases, stale-read \
     detector";
  let warmup = Sim_time.ms 500 in
  let measure = if quick then Sim_time.sec 1 else Sim_time.sec 2 in
  (* 1. observer scaling: fixed 3-voter ensemble, saturating read load *)
  let n_clients = 48 in
  Printf.printf
    "  3 voters, read_cost 200 us, %d clients round-robin over all replicas\n%!"
    n_clients;
  let scaling =
    List.map
      (fun observers ->
        let p = E.read_scaling_point ~warmup ~measure ~observers n_clients in
        Printf.printf
          "  observers=%d  %8.0f reads/s  mean %5.2f ms  p99 %5.2f ms%s\n%!"
          observers p.E.rp_throughput p.E.rp_mean_ms p.E.rp_p99_ms
          (if p.E.rp_invariant_failures = [] then ""
           else "  INVARIANT FAILURES: "
                ^ String.concat "; " p.E.rp_invariant_failures);
        p)
      [ 0; 2; 4 ]
  in
  let tp obs =
    (List.find (fun p -> p.E.rp_observers = obs) scaling).E.rp_throughput
  in
  let t_0 = tp 0 and t_2 = tp 2 and t_4 = tp 4 in
  Printf.printf
    "  scaling: x%.2f with 2 observers, x%.2f with 4 (gates: >=1.35, >=1.80)\n"
    (t_2 /. t_0) (t_4 /. t_0);
  (* 2. lease economics: linearizable reads with and without leases *)
  let lease_on = E.lease_cost_point ~warmup ~measure ~leases:true () in
  let lease_off = E.lease_cost_point ~warmup ~measure ~leases:false () in
  let pr (p : E.lease_cost_point) =
    Printf.printf
      "  linearizable reads, leases %-3s: %6d reads  %7.1f coord B/read  mean \
       %5.3f ms (%d lease / %d quorum)%s\n"
      (if p.E.lc_leases then "on" else "off")
      p.E.lc_reads p.E.lc_bytes_per_read p.E.lc_mean_ms p.E.lc_lease_reads
      p.E.lc_quorum_reads
      (if p.E.lc_invariant_failures = [] then ""
       else "  INVARIANT FAILURES: "
            ^ String.concat "; " p.E.lc_invariant_failures)
  in
  pr lease_on;
  pr lease_off;
  let byte_ratio =
    lease_off.E.lc_bytes_per_read /. Float.max 1e-9 lease_on.E.lc_bytes_per_read
  in
  let lat_ratio = lease_off.E.lc_mean_ms /. Float.max 1e-9 lease_on.E.lc_mean_ms in
  Printf.printf
    "  leases make reads x%.1f cheaper in coordination bytes (gate: >=5) and \
     x%.1f faster\n"
    byte_ratio lat_ratio;
  (* 3. stale-read detector self-test: the safe protocol must pass and the
     lease-expiry mutation must be convicted, on every seed *)
  let seeds = if quick then [ 42; 43 ] else List.init 5 (fun i -> 42 + i) in
  Printf.printf
    "  detector self-test: deposed leader under clock-skew + partition \
     nemesis, seeds %s\n%!"
    (String.concat ", " (List.map string_of_int seeds));
  let detector =
    List.map
      (fun seed ->
        let safe = E.stale_read_point ~seed ~unsafe:false () in
        let mutated = E.stale_read_point ~seed ~unsafe:true () in
        Printf.printf
          "  seed %d: safe %d violations (%d lease reads, %d refused \
           post-expiry) | mutated %d violations\n%!"
          seed safe.E.sr_violations safe.E.sr_lease_reads
          safe.E.sr_reads_refused mutated.E.sr_violations;
        (safe, mutated))
      seeds
  in
  (match detector with
  | (_, m0) :: _ ->
      List.iter (fun w -> Printf.printf "    witness: %s\n" w) m0.E.sr_witnesses
  | [] -> ());
  (* determinism: the same seed must reproduce the same fault trace *)
  let deterministic =
    match detector with
    | (safe0, _) :: _ ->
        let rerun = E.stale_read_point ~seed:safe0.E.sr_seed ~unsafe:false () in
        String.equal rerun.E.sr_trace safe0.E.sr_trace
    | [] -> true
  in
  Printf.printf "  same-seed rerun reproduces the fault trace: %b\n"
    deterministic;
  Bench_json.write_suite ~suite:"reads"
    [
      ("scaling", Bench_json.List (List.map json_of_read_scaling scaling));
      ( "lease_cost",
        Bench_json.Obj
          [
            ("on", json_of_lease_cost lease_on);
            ("off", json_of_lease_cost lease_off);
            ("byte_ratio", Bench_json.Float byte_ratio);
            ("latency_ratio", Bench_json.Float lat_ratio);
          ] );
      ( "detector",
        Bench_json.List
          (List.concat_map
             (fun (s, m) -> [ json_of_stale_read s; json_of_stale_read m ])
             detector) );
    ];
  let scaling_broken =
    List.exists (fun p -> p.E.rp_invariant_failures <> []) scaling
  in
  let lease_broken =
    lease_on.E.lc_invariant_failures <> []
    || lease_off.E.lc_invariant_failures <> []
  in
  (* the mutation must be convicted on EVERY seed; the safe run must never
     be, and must show both lease serving and post-expiry refusals *)
  let detector_bad =
    List.exists
      (fun ((s : E.stale_read_point), (m : E.stale_read_point)) ->
        s.E.sr_violations > 0 || m.E.sr_violations = 0
        || s.E.sr_lease_reads = 0 || s.E.sr_reads_refused = 0
        || s.E.sr_clock_skews = 0 || s.E.sr_partitions = 0)
      detector
  in
  if
    scaling_broken || lease_broken || detector_bad || (not deterministic)
    || t_2 < 1.35 *. t_0 || t_4 < 1.80 *. t_0 || byte_ratio < 5.0
    || lat_ratio < 1.5
  then begin
    Printf.printf "READ-PATH RUN FAILED ACCEPTANCE CHECKS\n";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  Report.section "Micro-benchmarks (Bechamel, real time per call)";
  Micro.run_all ();
  Report.section
    "Staged compilation / indexed dispatch matrix (interpreter vs compiled, scan vs indexed)";
  let rows, speedups = Micro.run_matrix () in
  Bench_json.write_suite ~suite:"micro"
    [
      ( "results",
        Bench_json.List
          (List.map
             (fun (r : Micro.matrix_row) ->
               Bench_json.Obj
                 [
                   ("name", Bench_json.Str r.Micro.m_name);
                   ("variant", Bench_json.Str r.Micro.m_variant);
                   ("extensions", Bench_json.Int r.Micro.m_extensions);
                   ("ns_per_call", Bench_json.Float r.Micro.m_ns_per_call);
                 ])
             rows) );
      ( "speedups",
        Bench_json.List
          (List.map
             (fun (name, base, contender, n, s) ->
               Bench_json.Obj
                 [
                   ("name", Bench_json.Str name);
                   ("baseline", Bench_json.Str base);
                   ("contender", Bench_json.Str contender);
                   ("extensions", Bench_json.Int n);
                   ("speedup", Bench_json.Float s);
                 ])
             speedups) );
    ]

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  if List.mem "--trace" args then
    Edc_simnet.Trace.setup_logging (Some Logs.Debug);
  let cfg = if quick then quick_config else full_config in
  let targets =
    List.filter (fun a -> a <> "--quick" && a <> "--trace") args
  in
  let targets = if targets = [] || List.mem "all" targets then
      [ "table1"; "table2"; "fig6"; "fig8"; "fig10"; "fig12"; "fig13";
        "overhead"; "ablation"; "batching"; "snapshot"; "chaos"; "membership";
        "linearize"; "reads"; "micro"; "wire"; "sharding" ]
    else targets
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun target ->
      match target with
      | "table1" -> Report.table1 ()
      | "table2" -> Report.table2 ()
      | "fig6" -> fig6 cfg
      | "fig8" -> fig8 cfg
      | "fig10" -> fig10 cfg
      | "fig12" -> fig12 cfg
      | "fig13" -> fig13 cfg
      | "overhead" -> overhead cfg
      | "ablation" -> ablation cfg
      | "batching" -> batching cfg
      | "snapshot" ->
          Report.section
            "Snapshot pipeline: COW capture, lazy serialization, chunked \
             transfer";
          Snapshot_bench.run ~quick
      | "chaos" -> chaos quick
      | "membership" -> membership quick
      | "linearize" -> linearize quick
      | "reads" -> reads quick
      | "micro" -> micro ()
      | "wire" ->
          Report.section
            "Wire codec: frame encode/decode vs Marshal, rejection cost, \
             TCP end to end";
          Wire_bench.run ~quick
      | "sharding" ->
          Report.section
            "Sharded namespace: group scaling, cross-shard 2PC ablation, \
             chaos acceptance";
          Sharding_bench.run ~quick
      | other -> Printf.eprintf "unknown target %S (skipped)\n" other)
    targets;
  Printf.printf "\nTotal bench wall time: %.1f s\n" (Unix.gettimeofday () -. t0)
