(** The paper's evaluation experiments (§6): one function per figure, each
    returning the data series the figure plots.  Every experiment runs a
    fresh deterministic simulation per (system, client-count) point. *)

open Edc_simnet
open Edc_recipes
module Api = Coord_api
module Ck_history = Edc_checker.History
module Ck_model = Edc_checker.Model
module Ck_wgl = Edc_checker.Wgl
module Instrument = Edc_checker.Instrument

let default_client_counts = [ 1; 10; 20; 30; 40; 50 ]
let paired_client_counts = [ 2; 10; 20; 30; 40; 50 ]

type point = {
  kind : Systems.kind;
  clients : int;
  throughput : float;  (** ops per second *)
  latency_ms : float;
  p99_ms : float;
  kb_per_op : float;  (** client-transmitted data per completed op *)
  attempts : float;
  errors : int;
}

let point_of_results kind clients (r : Workload.results) =
  {
    kind;
    clients;
    throughput = r.Workload.throughput;
    latency_ms = r.Workload.mean_latency_ms;
    p99_ms = r.Workload.p99_latency_ms;
    kb_per_op = r.Workload.kb_per_op;
    attempts = r.Workload.attempts_per_op;
    errors = r.Workload.errors;
  }

let ack_if_ext (api : Api.t) name =
  match api.Api.ext with
  | Some ext -> (
      match ext.Api.acknowledge name with
      | Ok () -> ()
      | Error e -> failwith ("acknowledge: " ^ e))
  | None -> ()

let fail_on_error what = function Ok _ -> () | Error e -> failwith (what ^ ": " ^ e)

let verdict_cell = function
  | Ck_wgl.Linearizable { states; _ } -> Printf.sprintf "ok(%d states)" states
  | Ck_wgl.Non_linearizable _ -> "VIOLATION"
  | Ck_wgl.Budget_exhausted _ -> "INCONCLUSIVE"

(** A sink for named invariants: [invariant name cond] records [name] when
    [cond] is false, and [failures ()] lists the records in check order. *)
let invariant_sink () =
  let failed = ref [] in
  ( (fun name cond -> if not cond then failed := name :: !failed),
    fun () -> List.rev !failed )

(* ------------------------------------------------------------------ *)
(* Figure 6: shared counter                                            *)
(* ------------------------------------------------------------------ *)

let counter_point ?(seed = 42) ?net_config ?batch ~warmup ~measure kind
    n_clients =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config ?batch kind sim in
  let extensible = Systems.is_extensible kind in
  let r =
    Workload.run sys
      {
        Workload.n_clients;
        warmup;
        measure;
        ops_per_iteration = 1;
        setup =
          (fun api ->
            fail_on_error "counter setup" (Counter.setup api);
            if extensible then fail_on_error "register" (Counter.register api));
        prepare =
          (fun api -> if extensible then ack_if_ext api Counter.extension_name);
        op =
          (fun api ->
            let r =
              if extensible then Counter.increment_ext api
              else Counter.increment_traditional api
            in
            Result.map (fun (r : Counter.result) -> r.Counter.attempts) r);
      }
  in
  point_of_results kind n_clients r

(* ------------------------------------------------------------------ *)
(* Figure 8: distributed queue (add + remove per iteration)            *)
(* ------------------------------------------------------------------ *)

let queue_point ?(seed = 42) ?net_config ?batch ~warmup ~measure kind
    n_clients =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config ?batch kind sim in
  let extensible = Systems.is_extensible kind in
  let iteration_counter = ref 0 in
  let r =
    Workload.run sys
      {
        Workload.n_clients;
        warmup;
        measure;
        ops_per_iteration = 2;
        setup =
          (fun api ->
            fail_on_error "queue setup" (Queue.setup api);
            if extensible then fail_on_error "register" (Queue.register api));
        prepare =
          (fun api -> if extensible then ack_if_ext api Queue.extension_name);
        op =
          (fun api ->
            incr iteration_counter;
            let eid = Queue.make_eid api !iteration_counter in
            (* empty payload: the cost measured is pure coordination
               overhead (§6.1.2) *)
            match Queue.add api ~eid ~data:"" with
            | Error e -> Error e
            | Ok () -> (
                let r =
                  if extensible then Queue.remove_ext api
                  else Queue.remove_traditional api
                in
                match r with
                | Ok rem -> Ok (1 + rem.Queue.attempts)
                | Error e -> Error e));
      }
  in
  point_of_results kind n_clients r

(* ------------------------------------------------------------------ *)
(* Figure 10: distributed barrier (round-based)                        *)
(* ------------------------------------------------------------------ *)

let barrier_point ?(seed = 42) ?net_config kind n_clients =
  let rounds = 30 and warmup_rounds = 5 in
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config kind sim in
  let extensible = Systems.is_extensible kind in
  let latencies = Stats.Series.create () in
  let enters = ref 0 in
  let bytes_start = ref 0 and bytes_end = ref 0 in
  let apis = ref [] in
  let addrs = ref [] in
  Proc.spawn sim (fun () ->
      let admin, _ = sys.Systems.new_api () in
      if extensible then fail_on_error "register" (Barrier.register admin);
      for _ = 1 to n_clients do
        let api, addr = sys.Systems.new_api () in
        if extensible then ack_if_ext api Barrier.extension_name;
        apis := api :: !apis;
        addrs := addr :: !addrs
      done;
      let snapshot () =
        List.fold_left (fun acc a -> acc + sys.Systems.bytes_sent_by a) 0 !addrs
      in
      for round = 1 to rounds do
        if round = warmup_rounds + 1 then bytes_start := snapshot ();
        let base = Printf.sprintf "/bar%06d" round in
        fail_on_error "barrier setup" (Barrier.setup admin ~base ~threshold:n_clients);
        let fibers =
          List.map
            (fun api ->
              Proc.async sim (fun () ->
                  let t0 = Sim.now sim in
                  (if extensible then
                     fail_on_error "enter" (Barrier.enter_ext api ~base)
                   else
                     fail_on_error "enter"
                       (Barrier.enter_traditional api ~base ~threshold:n_clients));
                  if round > warmup_rounds then begin
                    incr enters;
                    Stats.Series.add latencies
                      (Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0))
                  end))
            !apis
        in
        Proc.join fibers
      done;
      bytes_end := snapshot ());
  Sim.run ~until:(Sim_time.sec 3600) sim;
  {
    kind;
    clients = n_clients;
    throughput = 0.0;
    latency_ms = Stats.Series.mean latencies;
    p99_ms = Stats.Series.p99 latencies;
    kb_per_op =
      (if !enters = 0 then 0.0
       else float_of_int (!bytes_end - !bytes_start) /. 1024.0 /. float_of_int !enters);
    attempts = 1.0;
    errors = 0;
  }

(* ------------------------------------------------------------------ *)
(* Figure 12: leader election (become + immediately abdicate)          *)
(* ------------------------------------------------------------------ *)

let election_point ?(seed = 42) ?net_config ~warmup ~measure kind n_clients =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config kind sim in
  let extensible = Systems.is_extensible kind in
  let roots = Election.election_roots in
  let w = Workload.window sim ~warmup ~measure in
  let changes = ref 0 in
  let signaling = Stats.Series.create () in
  let last_abdication = ref None in
  Proc.spawn sim (fun () ->
      let admin, _ = sys.Systems.new_api () in
      fail_on_error "election setup" (Election.setup admin roots);
      if extensible then fail_on_error "register" (Election.register admin roots);
      for _ = 1 to n_clients do
        Proc.spawn sim (fun () ->
            let api, _ = sys.Systems.new_api () in
            let handle = Election.new_handle () in
            if extensible then ack_if_ext api roots.Election.name;
            Workload.repeat sim ~until:w.Workload.stop (fun () ->
                (if extensible then
                   fail_on_error "become" (Election.become_leader_ext api roots)
                 else
                   fail_on_error "become"
                     (Election.become_leader_traditional api roots handle));
                let now = Sim.now sim in
                if
                  Sim_time.(w.Workload.start <= now)
                  && Sim_time.(now <= w.Workload.stop)
                then begin
                  incr changes;
                  match !last_abdication with
                  | Some t ->
                      Stats.Series.add signaling
                        (Sim_time.to_float_ms (Sim_time.sub now t));
                      last_abdication := None
                  | None -> ()
                end;
                (* the newly appointed leader immediately abdicates *)
                last_abdication := Some (Sim.now sim);
                (if extensible then
                   fail_on_error "abdicate" (Election.abdicate_ext api roots)
                 else
                   fail_on_error "abdicate"
                     (Election.abdicate_traditional api roots handle))))
      done);
  Sim.run ~until:(Sim_time.add w.Workload.stop (Sim_time.sec 30)) sim;
  {
    kind;
    clients = n_clients;
    throughput = float_of_int !changes /. Sim_time.to_float_s measure;
    latency_ms = Stats.Series.mean signaling;
    p99_ms = Stats.Series.p99 signaling;
    kb_per_op = 0.0;
    attempts = 1.0;
    errors = 0;
  }

(* ------------------------------------------------------------------ *)
(* Regular clients next to the extensions (Figure 13, §6.2)            *)
(* ------------------------------------------------------------------ *)

(** One run with [n] regular clients on private 256-byte objects under
    /regular, the first half reading and the second half writing.  The
    admin client runs [setup] before creating the parent object, and
    [load sys w] spawns any other clients before the regular ones.
    Returns the regular clients' mean read and write latency in ms. *)
let regular_run ~seed ?net_config ~warmup ~measure ~n ~setup ~load kind =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config kind sim in
  let w = Workload.window sim ~warmup ~measure in
  let read_lat = Stats.Series.create () and write_lat = Stats.Series.create () in
  let payload = String.make 256 'x' in
  Proc.spawn sim (fun () ->
      let admin, _ = sys.Systems.new_api () in
      setup admin;
      (match admin.Api.create ~oid:"/regular" ~data:"" with
      | Ok _ | Error ("exists" | "node exists") -> ()
      | Error e -> failwith ("regular parent: " ^ e));
      load sys w;
      for k = 1 to n do
        Proc.spawn sim (fun () ->
            let api, _ = sys.Systems.new_api () in
            let oid = Printf.sprintf "/regular/obj%02d" k in
            (match api.Api.create ~oid ~data:payload with
            | Ok _ | Error ("exists" | "node exists") -> ()
            | Error e -> failwith ("regular setup: " ^ e));
            let op, lat =
              if k > n / 2 then
                ((fun () -> api.Api.update ~oid ~data:payload), write_lat)
              else ((fun () -> Result.map ignore (api.Api.read ~oid)), read_lat)
            in
            Workload.closed_loop sim w op (fun r ms ->
                if Result.is_ok r then Stats.Series.add lat ms))
      done);
  Sim.run ~until:(Sim_time.add w.Workload.stop (Sim_time.sec 10)) sim;
  (Stats.Series.mean read_lat, Stats.Series.mean write_lat)

type fig13_point = {
  f13_kind : Systems.kind;
  f13_queue_clients : int;
  f13_queue_throughput : float;  (** kOps/s equivalent: ops/s *)
  f13_read_ms : float;
  f13_write_ms : float;
}

(** Queue stress clients next to 30 regular clients: 15 readers and 15
    writers (§6.2). *)
let fig13_point ?(seed = 42) ?net_config ~warmup ~measure kind n_queue_clients =
  assert (Systems.is_extensible kind);
  let queue_ops = ref 0 in
  let setup admin =
    fail_on_error "queue setup" (Queue.setup admin);
    fail_on_error "register" (Queue.register admin)
  in
  let load (sys : Systems.t) w =
    for _ = 1 to n_queue_clients do
      Proc.spawn sys.Systems.sim (fun () ->
          let api, _ = sys.Systems.new_api () in
          ack_if_ext api Queue.extension_name;
          let i = ref 0 in
          Workload.closed_loop sys.Systems.sim w
            (fun () ->
              incr i;
              Result.bind
                (Queue.add api ~eid:(Queue.make_eid api !i) ~data:"")
                (fun () -> Queue.remove_ext api))
            (fun r _ -> if Result.is_ok r then queue_ops := !queue_ops + 2))
    done
  in
  let read_ms, write_ms =
    regular_run ~seed ?net_config ~warmup ~measure ~n:30 ~setup ~load kind
  in
  {
    f13_kind = kind;
    f13_queue_clients = n_queue_clients;
    f13_queue_throughput = float_of_int !queue_ops /. Sim_time.to_float_s measure;
    f13_read_ms = read_ms;
    f13_write_ms = write_ms;
  }

type overhead_point = {
  oh_kind : Systems.kind;
  oh_read_ms : float;
  oh_write_ms : float;
}

(** Regular read/write latency of 20 clients with no extension triggered;
    on the extensible systems an unrelated extension is registered so the
    manager's matching path is live. *)
let overhead_point ?(seed = 42) ?net_config ~warmup ~measure kind =
  let setup admin =
    if Systems.is_extensible kind then begin
      fail_on_error "counter setup" (Counter.setup admin);
      fail_on_error "register" (Counter.register admin)
    end
  in
  let read_ms, write_ms =
    regular_run ~seed ?net_config ~warmup ~measure ~n:20 ~setup
      ~load:(fun _ _ -> ())
      kind
  in
  {
    oh_kind = kind;
    oh_read_ms = read_ms;
    oh_write_ms = write_ms;
  }

(* ------------------------------------------------------------------ *)
(* Linearizability of the blocking recipes (election-as-lock, barrier) *)
(* ------------------------------------------------------------------ *)

type lin_point = {
  lp_kind : Systems.kind;
  lp_seed : int;
  lp_events : int;  (** history events captured *)
  lp_lock : Edc_checker.Wgl.verdict;
      (** mutual exclusion: leadership checked against the mutex model *)
  lp_barrier : (unit, string) result;
      (** gate property: nobody passes before the threshold-th entry *)
}

(** Healthy-cluster check of the recipes whose semantic unit is a whole
    blocking call rather than a single API operation: leadership
    acquire/release against the mutex model, barrier rounds against the
    real-time gate property.  Histories are captured with
    {!Edc_checker.Instrument.record} at recipe granularity. *)
let lin_recipes_point ?(seed = 42) kind =
  let contenders = 3 and rounds = 6 and barrier_clients = 4 and barrier_rounds = 5 in
  let sim = Sim.create ~seed () in
  let sys = Systems.make kind sim in
  let extensible = Systems.is_extensible kind in
  let history = Ck_history.create ~sim () in
  let roots = Election.election_roots in
  Proc.spawn sim (fun () ->
      let admin, _ = sys.Systems.new_api () in
      fail_on_error "election setup" (Election.setup admin roots);
      if extensible then begin
        fail_on_error "election reg" (Election.register admin roots);
        fail_on_error "barrier reg" (Barrier.register admin)
      end;
      (* leadership contenders: leadership = the lock *)
      for _ = 1 to contenders do
        Proc.spawn sim (fun () ->
            let api, _ = sys.Systems.new_api () in
            let handle = Election.new_handle () in
            if extensible then ack_if_ext api roots.Election.name;
            let client = api.Api.client_id in
            for _ = 1 to rounds do
              fail_on_error "become"
                (Instrument.record history ~client ~op:Ck_history.Acquire
                   ~response:(fun () -> Ck_history.R_unit)
                   (fun () ->
                     if extensible then Election.become_leader_ext api roots
                     else
                       Election.become_leader_traditional api roots handle));
              Proc.sleep sim (Sim_time.ms 5);
              fail_on_error "abdicate"
                (Instrument.record history ~client ~op:Ck_history.Release
                   ~response:(fun () -> Ck_history.R_unit)
                   (fun () ->
                     if extensible then Election.abdicate_ext api roots
                     else Election.abdicate_traditional api roots handle))
            done)
      done;
      (* barrier rounds (base must start with "/bar", the extension's
         subscription prefix) *)
      let apis =
        List.init barrier_clients (fun _ ->
            let api, _ = sys.Systems.new_api () in
            if extensible then ack_if_ext api Barrier.extension_name;
            api)
      in
      for round = 1 to barrier_rounds do
        let base = Printf.sprintf "/barlin%04d" round in
        fail_on_error "barrier setup"
          (Barrier.setup admin ~base ~threshold:barrier_clients);
        let fibers =
          List.map
            (fun (api : Api.t) ->
              Proc.async sim (fun () ->
                  fail_on_error "enter"
                    (Instrument.record history ~client:api.Api.client_id
                       ~op:(Ck_history.Enter base)
                       ~response:(fun () -> Ck_history.R_unit)
                       (fun () ->
                         if extensible then Barrier.enter_ext api ~base
                         else
                           Barrier.enter_traditional api ~base
                             ~threshold:barrier_clients))))
            apis
        in
        Proc.join fibers
      done);
  Sim.run ~until:(Sim_time.sec 600) sim;
  let parts = Ck_history.split (Ck_history.entries history) in
  let part obj = Option.value ~default:[] (List.assoc_opt obj parts) in
  {
    lp_kind = kind;
    lp_seed = seed;
    lp_events = Ck_history.n_events history;
    lp_lock =
      Ck_wgl.check Ck_model.mutex (part "lock");
    lp_barrier =
      Ck_model.check_gate ~threshold:barrier_clients (part "barrier");
  }

(* ------------------------------------------------------------------ *)
(* Chaos: availability under the nemesis fault schedule               *)
(* ------------------------------------------------------------------ *)

type chaos_point = {
  ch_kind : Systems.kind;
  ch_seed : int;
  ch_ops_ok : int;
  ch_ops_maybe : int;  (** concluded [Maybe_applied] (ambiguous writes) *)
  ch_ops_failed : int;
  ch_success_rate : float;
  ch_errors : (string * int) list;  (** taxonomy of non-ok outcomes *)
  ch_counter_confirmed : int;
  ch_counter_maybe : int;
  ch_counter_final : int;
  ch_adds_confirmed : int;
  ch_adds_maybe : int;
  ch_consumed : int;
  ch_remaining : int;
  ch_removes_maybe : int;
  ch_crashes : int;
  ch_leader_kills : int;
  ch_partitions : int;
  ch_partitions_healed : int;
  ch_storms : int;
  ch_faults : int;
  ch_dropped : int;  (** messages discarded by the simulated network *)
  ch_recovery_ms : Stats.Series.t;
      (** per-disruption time to the next successful client operation *)
  ch_unrecovered : int;
  ch_anomalies : int;
  ch_invariant_failures : string list;  (** empty = all invariants intact *)
  ch_trace : string;
  ch_lin : (string * Ck_wgl.verdict) list;
      (** per-object linearizability verdicts over the captured history
          (empty when the run was started with [~check:false]) *)
  ch_history_events : int;
  ch_snap : Systems.snapshot_stats;
      (** snapshot/state-transfer activity during the run (zeros for the
          BFT deployments) *)
  ch_wire : Systems.wire_stats;
      (** serializer work during the run: frames encoded vs per-destination
          sends (zeros for the BFT deployments) *)
  ch_reconfig : Edc_replication.Zab.reconfig_stats;
      (** membership-change activity (all-zero when the schedule contains
          no reconfiguration and none was driven externally) *)
  ch_reconfig_kills : int;  (** reconfiguration-targeted leader strikes *)
}

(** The fault run shared by the chaos and membership experiments: three
    counter incrementers (sleeping [think ()] between operations) plus
    [queue_pairs] queue producers and consumers on resilient sessions until
    [ops_end], while the nemesis runs [schedule] until [horizon] and the
    optional [driver] fibre changes the deployment; afterwards the final
    state is read back and checked against what clients were told.

    The safety invariants tolerate exactly the ambiguity the session layer
    surfaces: every [Maybe_applied] write may or may not have executed, so
    [confirmed <= final <= confirmed + maybe] for the counter, and a
    confirmed queue element may only be missing if some remove concluded
    ambiguously.  The driver reports through the same [invariant] sink, so
    its failures come first.  Also returns the success timestamps (oldest
    first) and the nemesis. *)
let fault_run ~seed ~schedule ~horizon ~ops_end
    ~queue_pairs ~think ?driver kind (sys : Systems.t) =
  let sim = sys.Systems.sim in
  let history = Ck_history.create ~sim () in
  let extensible = Systems.is_extensible kind in
  (* every resilient op concludes within the session deadline of its
     start, so final-state verification waits that long after [ops_end] *)
  let deadline =
    Option.value Edc_core.Retry.default_policy.Edc_core.Retry.deadline
      ~default:(Sim_time.sec 30)
  in
  let verify_at = Sim_time.add ops_end (Sim_time.add deadline (Sim_time.sec 1)) in
  let ok = ref 0 and maybe = ref 0 and failed = ref 0 in
  let taxonomy : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let tax e =
    Hashtbl.replace taxonomy e
      (1 + Option.value ~default:0 (Hashtbl.find_opt taxonomy e))
  in
  let success_times = ref [] in
  let succeed () =
    incr ok;
    success_times := Sim.now sim :: !success_times
  in
  let classify e ~on_maybe =
    if e = "maybe applied" then begin
      on_maybe ();
      incr maybe
    end
    else incr failed;
    tax e
  in
  let confirmed_incr = ref 0 and maybe_incr = ref 0 in
  let confirmed_adds : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let maybe_adds : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let consumed = ref [] in
  let maybe_removes = ref 0 in
  let invariant, invariant_failures = invariant_sink () in
  let nemesis = ref None in
  Proc.spawn sim (fun () ->
      let admin, _ = sys.Systems.new_api () in
      fail_on_error "counter setup" (Counter.setup admin);
      fail_on_error "queue setup" (Queue.setup admin);
      if extensible then begin
        fail_on_error "register counter" (Counter.register admin);
        fail_on_error "register queue" (Queue.register admin)
      end;
      nemesis :=
        Some
          (Nemesis.start ~sim ~target:(sys.Systems.nemesis_target ())
             ~horizon schedule);
      (* three counter incrementers *)
      for _ = 1 to 3 do
        Proc.spawn sim (fun () ->
            let api = Instrument.wrap history (fst (sys.Systems.new_resilient_api ())) in
            if extensible then ack_if_ext api Counter.extension_name;
            Workload.repeat sim ~until:ops_end (fun () ->
                (match
                   if extensible then Counter.increment_ext api
                   else Counter.increment_traditional api
                 with
                | Ok _ ->
                    incr confirmed_incr;
                    succeed ()
                | Error e ->
                    classify e ~on_maybe:(fun () -> incr maybe_incr));
                Proc.sleep sim (think ())))
      done;
      (* producers: element data = eid, so consumed elements are
         identifiable for the conservation check *)
      for _ = 1 to queue_pairs do
        Proc.spawn sim (fun () ->
            let api = Instrument.wrap history (fst (sys.Systems.new_resilient_api ())) in
            if extensible then ack_if_ext api Queue.extension_name;
            let i = ref 0 in
            Workload.repeat sim ~until:ops_end (fun () ->
                incr i;
                let eid = Queue.make_eid api !i in
                (match Queue.add api ~eid ~data:eid with
                | Ok () ->
                    Hashtbl.replace confirmed_adds eid ();
                    succeed ()
                | Error e ->
                    classify e ~on_maybe:(fun () ->
                        Hashtbl.replace maybe_adds eid ()));
                Proc.sleep sim (Sim_time.ms 40)))
      done;
      (* consumers *)
      for _ = 1 to queue_pairs do
        Proc.spawn sim (fun () ->
            let api = Instrument.wrap history (fst (sys.Systems.new_resilient_api ())) in
            if extensible then ack_if_ext api Queue.extension_name;
            Workload.repeat sim ~until:ops_end (fun () ->
                (match
                   if extensible then Queue.remove_ext api
                   else Queue.remove_traditional api
                 with
                | Ok { Queue.data = Some d; _ } ->
                    consumed := d :: !consumed;
                    succeed ()
                | Ok { Queue.data = None; _ } ->
                    (* an empty poll is still a served request *)
                    succeed ();
                    Proc.sleep sim (Sim_time.ms 60)
                | Error e ->
                    classify e ~on_maybe:(fun () -> incr maybe_removes));
                Proc.sleep sim (Sim_time.ms 30)))
      done;
      Option.iter
        (fun driver -> Proc.spawn sim (fun () -> driver ~invariant))
        driver);
  Sim.run ~until:verify_at sim;
  (* read back the final state through a fresh client (fenced replicas
     refuse it, so it lands on a live member) *)
  let final_counter = ref 0 in
  let remaining = ref [] in
  Proc.spawn sim (fun () ->
      (* the final reads go through the instrumented wrapper too: they
         pin the final state in the recorded history, so a lost or
         double-applied write has to show up as a non-linearizable read *)
      let api = Instrument.wrap history (fst (sys.Systems.new_resilient_api ())) in
      (match api.Api.read ~oid:Counter.counter_oid with
      | Ok (Some o) -> final_counter := int_of_string o.Api.data
      | Ok None -> failwith "counter object vanished"
      | Error e -> failwith ("final counter read: " ^ e));
      match api.Api.sub_objects ~oid:Queue.root with
      | Ok objs ->
          remaining := List.map (fun (o : Api.obj) -> o.Api.data) objs
      | Error e -> failwith ("final queue read: " ^ e));
  Sim.run ~until:(Sim_time.add verify_at (Sim_time.sec 10)) sim;
  let nem = Option.get !nemesis in
  let anomalies = sys.Systems.anomalies () in
  invariant "replication anomalies = 0" (anomalies = 0);
  invariant "counter >= confirmed increments" (!final_counter >= !confirmed_incr);
  invariant "counter <= confirmed + ambiguous increments"
    (!final_counter <= !confirmed_incr + !maybe_incr);
  let sorted_consumed = List.sort compare !consumed in
  let rec has_dup = function
    | a :: (b :: _ as rest) -> a = b || has_dup rest
    | _ -> false
  in
  invariant "no queue element consumed twice" (not (has_dup sorted_consumed));
  invariant "consumed elements were added"
    (List.for_all
       (fun d -> Hashtbl.mem confirmed_adds d || Hashtbl.mem maybe_adds d)
       !consumed);
  let consumed_set : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace consumed_set d ()) !consumed;
  let remaining_set : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun d -> Hashtbl.replace remaining_set d ()) !remaining;
  let missing =
    Hashtbl.fold
      (fun eid () acc ->
        if Hashtbl.mem consumed_set eid || Hashtbl.mem remaining_set eid then
          acc
        else acc + 1)
      confirmed_adds 0
  in
  invariant "lost queue elements covered by ambiguous removes"
    (missing <= !maybe_removes);
  (* per-disruption recovery: time to the next successful client op *)
  let successes = List.rev !success_times in
  let recovery = Stats.Series.create () in
  let unrecovered = ref 0 in
  List.iter
    (fun { Nemesis.at; fault } ->
      match fault with
      | Nemesis.Crash _ | Nemesis.Partition _ | Nemesis.Storm_start _ -> (
          match List.find_opt (fun ts -> Sim_time.(at <= ts)) successes with
          | Some ts ->
              Stats.Series.add recovery
                (Sim_time.to_float_ms (Sim_time.sub ts at))
          | None -> incr unrecovered)
      | _ -> ())
    (Nemesis.trace nem);
  let total = !ok + !maybe + !failed in
  let errors =
    Hashtbl.fold (fun e n acc -> (e, n) :: acc) taxonomy []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  let point =
    {
      ch_kind = kind;
      ch_seed = seed;
      ch_ops_ok = !ok;
      ch_ops_maybe = !maybe;
      ch_ops_failed = !failed;
      ch_success_rate =
        (if total = 0 then 0. else float_of_int !ok /. float_of_int total);
      ch_errors = errors;
      ch_counter_confirmed = !confirmed_incr;
      ch_counter_maybe = !maybe_incr;
      ch_counter_final = !final_counter;
      ch_adds_confirmed = Hashtbl.length confirmed_adds;
      ch_adds_maybe = Hashtbl.length maybe_adds;
      ch_consumed = List.length !consumed;
      ch_remaining = List.length !remaining;
      ch_removes_maybe = !maybe_removes;
      ch_crashes = Nemesis.crashes nem;
      ch_leader_kills = Nemesis.leader_kills nem;
      ch_partitions = Nemesis.partitions nem;
      ch_partitions_healed = Nemesis.partitions_healed nem;
      ch_storms = Nemesis.storms nem;
      ch_faults = Nemesis.faults_injected nem;
      ch_dropped = sys.Systems.dropped_messages ();
      ch_recovery_ms = recovery;
      ch_unrecovered = !unrecovered;
      ch_anomalies = anomalies;
      ch_invariant_failures = invariant_failures ();
      ch_trace = Nemesis.trace_to_string nem;
      ch_lin = Ck_wgl.check_objects history;
      ch_history_events = Ck_history.n_events history;
      ch_snap = sys.Systems.snapshot_stats ();
      ch_wire = sys.Systems.wire_stats ();
      ch_reconfig = sys.Systems.reconfig_stats ();
      ch_reconfig_kills = Nemesis.reconfig_kills nem;
    }
  in
  (point, successes, nem)

let chaos_point ?(seed = 42) ?net_config ?zab_config ?server_config
    ?(schedule = Nemesis.standard_schedule) ?(horizon = Sim_time.sec 22)
    kind =
  let sim = Sim.create ~seed () in
  let sys = Systems.make ?net_config ?zab_config ?server_config kind sim in
  let point, _, _ =
    fault_run ~seed ~schedule ~horizon
      ~ops_end:(Sim_time.add horizon (Sim_time.sec 3))
      ~queue_pairs:2
      ~think:(fun () -> Sim_time.ms 20)
      kind sys
  in
  point

(* ------------------------------------------------------------------ *)
(* Elastic membership: 3 -> 5 -> 3 autoscaling under chaos             *)
(* ------------------------------------------------------------------ *)

type membership_point = {
  mp_run : chaos_point;
  mp_members_final : int list;
  mp_grow_ms : float list;  (** add_replica -> stable config, per join *)
  mp_shrink_ms : float list;  (** remove accepted -> stable config *)
  mp_steady_ops_s : float;  (** pre-reconfiguration write throughput *)
  mp_trough_ops_s : float;  (** worst bucket during the elastic phase *)
  mp_recovery_s : float list;
      (** per reconfiguration event: time until bucket throughput is back
          to >= 90% of steady state *)
  mp_unrecovered : int;
}

(** The autoscaling scenario: the fault run with one queue pair under a
    diurnal write curve, while a driver grows the 3-replica ensemble to 5
    (each joiner bootstrapped as a learner via chunked snapshot transfer)
    and shrinks it back to 3; a reconfiguration-targeted nemesis kills the
    leader mid-change and the first learner's links are cut mid-bootstrap
    (the transfer must resume, not restart).  Safety is the fault run's:
    the replication anomaly counters, the counter/queue conservation
    invariants, and a WGL pass over the full client history spanning every
    config boundary; the membership life-cycle checks are appended. *)
let membership_point ?(seed = 42) ?net_config kind =
  let sim = Sim.create ~seed () in
  (* a regional (few-ms) network, not the 100 us LAN: agreement rounds and
     the learner bootstrap must span real time or every race window the
     nemesis aims for closes within a single poll *)
  let net_config =
    match net_config with
    | Some c -> Some c
    | None -> Some { Net.lan_config with Net.base_latency = Sim_time.ms 3 }
  in
  (* a tight snapshot interval + small chunks so a joiner always
     bootstraps through a multi-chunk state transfer *)
  let server_config =
    {
      Edc_zookeeper.Server.default_config with
      Edc_zookeeper.Server.snapshot_interval = 40;
    }
  in
  let zab_config =
    {
      Edc_replication.Zab.default_config with
      Edc_replication.Zab.snapshot_chunk_size = 192;
      snapshot_window = 4;
    }
  in
  let sys =
    Systems.make ?net_config ~zab_config ~server_config kind sim
  in
  let ops_end = Sim_time.sec 21 in
  let grow_ms = ref [] and shrink_ms = ref [] in
  let reconfig_marks = ref [] in  (* initiation times, for recovery windows *)
  let wait_until ?(poll = Sim_time.ms 50) ~timeout pred =
    let wait_deadline = Sim_time.add (Sim.now sim) timeout in
    let rec go () =
      if pred () then true
      else if Sim_time.(wait_deadline <= Sim.now sim) then false
      else begin
        Proc.sleep sim poll;
        go ()
      end
    in
    go ()
  in
  let stable_members n () =
    (not (sys.Systems.reconfig_in_flight ()))
    && List.length (sys.Systems.members ()) = n
  in
  (* diurnal write curve: think time swings 12..28 ms on an 8 s period *)
  let diurnal_sleep () =
    let t = Sim_time.to_float_s (Sim.now sim) in
    let phase = sin (2. *. Float.pi *. t /. 8.) in
    Sim_time.of_float_s (0.012 +. 0.016 *. (1. +. phase) /. 2.)
  in
  (* the autoscaling driver: 3 -> 4 -> 5 -> 4 -> 3 *)
  let driver ~invariant =
    let grow ~cut_bootstrap ~timeout =
      let t0 = Sim.now sim in
      reconfig_marks := t0 :: !reconfig_marks;
      match sys.Systems.add_replica () with
      | Error e ->
          invariant (Printf.sprintf "add_replica accepted (%s)" e) false
      | Ok lid ->
          if cut_bootstrap then
            Proc.spawn sim (fun () ->
                (* isolate the learner once its chunked bootstrap is
                   demonstrably in flight; on heal the transfer must
                   resume from chunk > 0 *)
                let tgt = sys.Systems.nemesis_target () in
                let peers =
                  List.filter (fun n -> n <> lid) (sys.Systems.members ())
                in
                if
                  wait_until ~poll:(Sim_time.ms 2) ~timeout:(Sim_time.sec 4)
                    (fun () ->
                      (sys.Systems.snapshot_stats ()).Systems.ss_chunks_sent
                      >= 3)
                then begin
                  List.iter (fun o -> tgt.Nemesis.cut lid o) peers;
                  Proc.sleep sim (Sim_time.ms 400);
                  List.iter (fun o -> tgt.Nemesis.heal lid o) peers
                end);
          let n = List.length (sys.Systems.members ()) + 1 in
          if wait_until ~timeout (stable_members n) then
            grow_ms :=
              Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0) :: !grow_ms
          else invariant (Printf.sprintf "grow to %d members completed" n) false
    in
    let shrink ~id ~timeout =
      let t0 = Sim.now sim in
      reconfig_marks := t0 :: !reconfig_marks;
      let accept_deadline = Sim_time.add (Sim.now sim) (Sim_time.sec 6) in
      let rec request () =
        match sys.Systems.remove_replica id with
        | Ok () -> true
        | Error _ ->
            if Sim_time.(accept_deadline <= Sim.now sim) then false
            else begin
              Proc.sleep sim (Sim_time.ms 100);
              request ()
            end
      in
      if not (request ()) then
        invariant (Printf.sprintf "remove_replica %d accepted" id) false
      else
        let n = List.length (sys.Systems.members ()) - 1 in
        if
          wait_until ~timeout (fun () ->
              stable_members n () && not (List.mem id (sys.Systems.members ())))
        then
          shrink_ms :=
            Sim_time.to_float_ms (Sim_time.sub (Sim.now sim) t0) :: !shrink_ms
        else
          invariant (Printf.sprintf "shrink past replica %d completed" id) false
    in
    Proc.sleep sim (Sim_time.sec 4);
    (* join 1: clean of scheduled chaos (the nemesis arms at t=8s), but
       the learner's links are cut mid-bootstrap *)
    grow ~cut_bootstrap:true ~timeout:(Sim_time.sec 8);
    (* join 2 lands inside the nemesis window: the leader dies within
       120 ms of the change getting underway *)
    Proc.sleep sim (Sim_time.sec 4);
    grow ~cut_bootstrap:false ~timeout:(Sim_time.sec 10);
    Proc.sleep sim (Sim_time.ms 500);
    (* scale back down under the same fire *)
    shrink ~id:4 ~timeout:(Sim_time.sec 10);
    shrink ~id:3 ~timeout:(Sim_time.sec 10)
  in
  (* the only scheduled chaos: from t=8s, strike the leader within 120 ms
     whenever a reconfiguration is in flight *)
  let schedule =
    [
      {
        Nemesis.start = Sim_time.sec 8;
        period = Some (Sim_time.ms 1200);
        action =
          Nemesis.Reconfig_kill
            { grace = Sim_time.ms 120; downtime = Sim_time.ms 1200 };
      };
    ]
  in
  let run, successes, nem =
    fault_run ~seed ~schedule ~horizon:(Sim_time.sec 16)
      ~ops_end ~queue_pairs:1 ~think:diurnal_sleep ~driver kind sys
  in
  (* the membership life-cycle outcomes, after the fault run's checks *)
  let members_final = sys.Systems.members () in
  let reconfig = run.ch_reconfig in
  let lifecycle =
    List.filter_map
      (fun (name, cond) -> if cond then None else Some name)
      [
        ( "membership returned to the original three",
          members_final = [ 0; 1; 2 ] );
        ( "both joins completed",
          reconfig.Edc_replication.Zab.joins_completed >= 2 );
        ( "both leaves completed",
          reconfig.Edc_replication.Zab.leaves_completed >= 2 );
        ( "interrupted learner bootstrap resumed from chunk > 0",
          run.ch_snap.Systems.ss_last_resume_from > 0 );
      ]
  in
  (* throughput: 500 ms buckets; steady state = the pre-reconfiguration
     plateau; recovery = time from each reconfiguration event until a
     bucket is back to >= 90% of steady *)
  let bucket = 0.5 in
  let n_buckets =
    int_of_float (ceil (Sim_time.to_float_s ops_end /. bucket))
  in
  let rates = Array.make (Stdlib.max n_buckets 1) 0. in
  List.iter
    (fun ts ->
      let i = int_of_float (Sim_time.to_float_s ts /. bucket) in
      if i >= 0 && i < Array.length rates then
        rates.(i) <- rates.(i) +. (1. /. bucket))
    successes;
  let mean_over lo hi =
    let sum = ref 0. and n = ref 0 in
    Array.iteri
      (fun i r ->
        let start = float_of_int i *. bucket in
        if start >= lo && start < hi then begin
          sum := !sum +. r;
          incr n
        end)
      rates;
    if !n = 0 then 0. else !sum /. float_of_int !n
  in
  let steady = mean_over 1.0 4.0 in
  let events =
    List.rev_map Sim_time.to_float_s !reconfig_marks
    @ List.filter_map
        (fun { Nemesis.at; fault } ->
          match fault with
          | Nemesis.Reconfig_fault _ -> Some (Sim_time.to_float_s at)
          | _ -> None)
        (Nemesis.trace nem)
  in
  let recovery_s = ref [] and unrecovered = ref 0 in
  List.iter
    (fun te ->
      let rec scan i =
        if i >= Array.length rates then incr unrecovered
        else
          let start = float_of_int i *. bucket in
          if start +. bucket <= te then scan (i + 1)
          else if rates.(i) >= 0.9 *. steady then
            recovery_s := Float.max 0. (start +. bucket -. te) :: !recovery_s
          else scan (i + 1)
      in
      scan 0)
    events;
  let trough =
    let m = ref infinity in
    Array.iteri
      (fun i r ->
        let start = float_of_int i *. bucket in
        if start >= 4.0 && start +. bucket <= Sim_time.to_float_s ops_end then
          m := Float.min !m r)
      rates;
    if !m = infinity then 0. else !m
  in
  {
    mp_run =
      { run with ch_invariant_failures = run.ch_invariant_failures @ lifecycle };
    mp_members_final = members_final;
    mp_grow_ms = List.rev !grow_ms;
    mp_shrink_ms = List.rev !shrink_ms;
    mp_steady_ops_s = steady;
    mp_trough_ops_s = trough;
    mp_recovery_s = List.rev !recovery_s;
    mp_unrecovered = !unrecovered;
  }

(* ------------------------------------------------------------------ *)
(* §6i: the scale-free read path — observer scaling, lease economics,  *)
(* and the stale-read detector self-test                               *)
(* ------------------------------------------------------------------ *)

module Zk = Edc_zookeeper
module Ck_freshness = Edc_checker.Freshness

(* The read-path workload: one 64-byte object, created through replica 0
   and read back to back by closed-loop clients spread over the
   deployment; each read that succeeds inside [w] adds its latency to
   [lat]. *)
let create_obj cluster =
  let admin = Zk.Cluster.connected_client ~replica:0 cluster () in
  match Zk.Client.create_node admin "/obj" (String.make 64 'x') with
  | Ok _ -> ()
  | Error e -> failwith ("setup: " ^ Zk.Zerror.to_string e)

let spawn_obj_readers sim cluster w n lat =
  for _ = 1 to n do
    Proc.spawn sim (fun () ->
        let c = Zk.Cluster.connected_client cluster () in
        Workload.closed_loop sim w
          (fun () -> Zk.Client.get_data c "/obj")
          (fun r ms -> if Result.is_ok r then Stats.Series.add lat ms))
  done

type read_scaling_point = {
  rp_observers : int;
  rp_clients : int;
  rp_reads : int;  (** completed inside the measure window *)
  rp_throughput : float;  (** reads per second *)
  rp_mean_ms : float;
  rp_p99_ms : float;
  rp_observer_reads : int;  (** reads served by observer replicas *)
  rp_invariant_failures : string list;
}

(** Read throughput of a fixed 3-voter ensemble as permanent observers
    are attached.  The read cost is raised well above the LAN round trip so
    the replicas' serial read CPU — the resource observers multiply — is
    the bottleneck; clients are allocated after the observers bootstrap
    and round-robin across the whole deployment.  Write quorums, election
    quorums and lease quorums stay at 2-of-3 throughout: the observers
    only widen the read plane. *)
let read_scaling_point ?(seed = 42) ?net_config ~warmup ~measure ~observers
    n_clients =
  let sim = Sim.create ~seed () in
  let server_config =
    { Zk.Server.default_config with Zk.Server.read_cost = Sim_time.us 200 }
  in
  let cluster =
    Zk.Cluster.create ~n_replicas:3 ?net_config ~server_config sim
  in
  let lat = Stats.Series.create () in
  let invariant, invariant_failures = invariant_sink () in
  Proc.spawn sim (fun () ->
      create_obj cluster;
      let obs_ids =
        List.init observers (fun _ -> Zk.Cluster.add_observer cluster)
      in
      (* let the chunked bootstraps land before attaching load *)
      Proc.sleep sim (Sim_time.ms 800);
      let servers = Zk.Cluster.servers cluster in
      List.iter
        (fun oid ->
          invariant
            (Printf.sprintf "observer %d applied the commit stream" oid)
            (Zk.Server.txns_applied servers.(oid) > 0))
        obs_ids;
      let w = Workload.window sim ~warmup ~measure in
      spawn_obj_readers sim cluster w n_clients lat);
  Sim.run
    ~until:(Sim_time.add (Sim_time.add warmup measure) (Sim_time.sec 3))
    sim;
  let servers = Zk.Cluster.servers cluster in
  let obs_reads = ref 0 in
  Array.iteri
    (fun i s ->
      if i >= 3 then begin
        obs_reads := !obs_reads + Zk.Server.reads_served s;
        let z = Zk.Server.zab s in
        invariant
          (Printf.sprintf "observer %d is marked observer" i)
          (Edc_replication.Zab.is_observer z);
        invariant
          (Printf.sprintf "observer %d stayed out of the voter set" i)
          (not (List.mem i (Edc_replication.Zab.members z)));
        invariant
          (Printf.sprintf "observer %d never led" i)
          (not (Zk.Server.is_leader s));
        invariant
          (Printf.sprintf "observer %d served reads" i)
          (Zk.Server.reads_served s > 0)
      end)
    servers;
  let reads = Stats.Series.count lat in
  {
    rp_observers = observers;
    rp_clients = n_clients;
    rp_reads = reads;
    rp_throughput = float_of_int reads /. Sim_time.to_float_s measure;
    rp_mean_ms = Stats.Series.mean lat;
    rp_p99_ms = Stats.Series.p99 lat;
    rp_observer_reads = !obs_reads;
    rp_invariant_failures = invariant_failures ();
  }

type lease_cost_point = {
  lc_leases : bool;
  lc_reads : int;  (** leader-accounted linearizable reads in the window *)
  lc_lease_reads : int;  (** of which lease-served (window delta) *)
  lc_quorum_reads : int;  (** of which commit-path fallbacks *)
  lc_mean_ms : float;
  lc_p99_ms : float;
  lc_bytes_per_read : float;
      (** server-to-server coordination bytes per linearizable read
          (proposals, acks, commits, heartbeats, lease grants): the cost
          the lease removes.  Client request/response bytes are excluded
          — identical in both modes. *)
  lc_invariant_failures : string list;
}

(** The economics of the lease fast path: the same linearizable-read
    workload with leases on (every read served locally at the leader under
    a majority lease) versus off ([lease_duration = 0], so every read is
    ordered through the commit path as a quiet no-op).  Compared on
    coordination bytes per read and latency. *)
let lease_cost_point ?(seed = 42) ?net_config ~warmup ~measure ~leases () =
  let sim = Sim.create ~seed () in
  let server_config =
    { Zk.Server.default_config with Zk.Server.linearizable_reads = true }
  in
  let zab_config =
    if leases then Edc_replication.Zab.default_config
    else
      {
        Edc_replication.Zab.default_config with
        Edc_replication.Zab.lease_duration = Sim_time.zero;
      }
  in
  let cluster =
    Zk.Cluster.create ~n_replicas:3 ?net_config ~server_config ~zab_config sim
  in
  let net = Zk.Cluster.net cluster in
  (* Server-to-server bytes only: everything servers received minus what
     clients sent (clients only ever address servers), leaving proposals,
     acks, commits, heartbeats and lease grants — the coordination plane.
     Client requests and responses are identical in both modes and would
     dilute the comparison. *)
  let server_bytes () =
    let sent =
      Net.bytes_sent_by net 0 + Net.bytes_sent_by net 1
      + Net.bytes_sent_by net 2
    and recv =
      Net.bytes_received_by net 0 + Net.bytes_received_by net 1
      + Net.bytes_received_by net 2
    in
    recv - (Net.total_bytes_sent net - sent)
  in
  let lease_quorum () =
    Array.fold_left
      (fun (l, q) s -> (l + Zk.Server.lease_reads s, q + Zk.Server.quorum_reads s))
      (0, 0) (Zk.Cluster.servers cluster)
  in
  let lat = Stats.Series.create () in
  let marks = ref None in  (* (bytes0, lease0, quorum0, bytes1, lease1, quorum1) *)
  let invariant, invariant_failures = invariant_sink () in
  Proc.spawn sim (fun () ->
      create_obj cluster;
      let w = Workload.window sim ~warmup ~measure in
      (* bracket the window with byte/counter snapshots *)
      Proc.spawn sim (fun () ->
          Proc.sleep sim (Sim_time.sub w.Workload.start (Sim.now sim));
          let b0 = server_bytes () and l0, q0 = lease_quorum () in
          Proc.sleep sim measure;
          let b1 = server_bytes () and l1, q1 = lease_quorum () in
          marks := Some (b0, l0, q0, b1, l1, q1));
      spawn_obj_readers sim cluster w 4 lat);
  Sim.run
    ~until:(Sim_time.add (Sim_time.add warmup measure) (Sim_time.sec 3))
    sim;
  let b0, l0, q0, b1, l1, q1 =
    match !marks with Some m -> m | None -> failwith "window never closed"
  in
  let lease_reads = l1 - l0 and quorum_reads = q1 - q0 in
  let reads = lease_reads + quorum_reads in
  if leases then begin
    invariant "lease mode: reads were lease-served" (lease_reads > 0);
    invariant "lease mode: no read fell back to the commit path"
      (quorum_reads = 0)
  end
  else begin
    invariant "quorum mode: reads took the commit path" (quorum_reads > 0);
    invariant "quorum mode: no lease read possible" (lease_reads = 0)
  end;
  {
    lc_leases = leases;
    lc_reads = reads;
    lc_lease_reads = lease_reads;
    lc_quorum_reads = quorum_reads;
    lc_mean_ms = Stats.Series.mean lat;
    lc_p99_ms = Stats.Series.p99 lat;
    lc_bytes_per_read =
      (if reads = 0 then 0. else float_of_int (b1 - b0) /. float_of_int reads);
    lc_invariant_failures = invariant_failures ();
  }

type stale_read_point = {
  sr_seed : int;
  sr_unsafe : bool;
  sr_violations : int;  (** real-time freshness convictions *)
  sr_witnesses : string list;  (** first few, pretty-printed *)
  sr_reads_ok : int;
  sr_reads_refused : int;
      (** reads the deposed leader refused (timed out on the dead commit
          path) instead of serving stale *)
  sr_writes_ok : int;
  sr_clock_skews : int;
  sr_partitions : int;
  sr_lease_reads : int;  (** lease-served reads at the initial leader *)
  sr_trace : string;
}

(** The stale-read detector's conviction scenario (§6i): a reader pinned
    to the initial leader while a clock-skew + partition nemesis isolates
    that leader mid-lease and a writer fails over to the new majority's
    leader.  With the safe default the deposed leader's lease expires
    (2ε early) before the new leader can commit anything, so post-expiry
    reads are refused — they fall back to a commit path that cannot
    commit — and {!Edc_checker.Freshness.check_realtime} finds nothing.
    With [unsafe:true] ([unsafe_ignore_lease_expiry]) the deposed leader
    keeps serving its stale tree and the detector must convict. *)
let stale_read_point ?(seed = 42) ?net_config ~unsafe () =
  let sim = Sim.create ~seed () in
  let server_config =
    { Zk.Server.default_config with Zk.Server.linearizable_reads = true }
  in
  let zab_config =
    {
      Edc_replication.Zab.default_config with
      Edc_replication.Zab.unsafe_ignore_lease_expiry = unsafe;
    }
  in
  let cluster =
    Zk.Cluster.create ~n_replicas:3 ?net_config ~server_config ~zab_config sim
  in
  let target = Zk.Cluster.nemesis_target ~name:"zookeeper" cluster in
  (* drifts stay inside the protocol's ±ε bound (10 ms): the safe run must
     survive them, which is exactly the 2ε margin's job *)
  let schedule =
    [
      {
        Nemesis.start = Sim_time.ms 200;
        period = Some (Sim_time.ms 900);
        action =
          Nemesis.Clock_skew
            {
              duration = Sim_time.ms 250;
              victim = Nemesis.Any_replica;
              skew = Sim_time.ms 8;
            };
      };
      {
        Nemesis.start = Sim_time.ms 650;
        period = Some (Sim_time.ms 900);
        action =
          Nemesis.Clock_skew
            {
              duration = Sim_time.ms 250;
              victim = Nemesis.Any_replica;
              skew = Sim_time.ms (-8);
            };
      };
      (* the kill shot: isolate the initial leader mid-lease *)
      {
        Nemesis.start = Sim_time.sec 1;
        period = None;
        action =
          Nemesis.Isolate
            {
              duration = Sim_time.sec 4;
              victim = Nemesis.Node 0;
              asymmetric = false;
            };
      };
    ]
  in
  let history = Ck_history.create ~sim () in
  let ops_end = Sim_time.sec 6 in
  let reads_ok = ref 0 and reads_refused = ref 0 and writes_ok = ref 0 in
  let nemesis = ref None in
  Proc.spawn sim (fun () ->
      let admin = Zk.Cluster.connected_client ~replica:1 cluster () in
      (match Zk.Client.create_node admin "/ctr" "0" with
      | Ok _ -> ()
      | Error e -> failwith ("setup: " ^ Zk.Zerror.to_string e));
      nemesis :=
        Some (Nemesis.start ~sim ~target ~horizon:ops_end schedule);
      (* reader pinned to the initial leader; a short timeout so refused
         lease reads surface as errors rather than stalls *)
      Proc.spawn sim (fun () ->
          let c =
            Zk.Cluster.connected_client
              ~config:
                {
                  Zk.Client.request_timeout = Sim_time.ms 300;
                  ping_interval = Sim_time.ms 500;
                }
              ~replica:0 cluster ()
          in
          Workload.repeat sim ~until:ops_end (fun () ->
              let id =
                Ck_history.invoke history ~client:0 Ck_history.Ctr_read
              in
              (match Zk.Client.get_data c "/ctr" with
              | Ok (data, stat) ->
                  incr reads_ok;
                  Ck_history.ok history id
                    (Ck_history.R_obj
                       { data; version = stat.Zk.Znode.version })
              | Error e ->
                  incr reads_refused;
                  Ck_history.fail history id (Zk.Zerror.to_string e));
              Proc.sleep sim (Sim_time.ms 25)));
      (* writer on a resilient session over the survivors: after the
         partition it lands on the new majority's leader *)
      Proc.spawn sim (fun () ->
          let c =
            Zk.Cluster.connected_client
              ~config:
                {
                  Zk.Client.request_timeout = Sim_time.ms 500;
                  ping_interval = Sim_time.ms 500;
                }
              ~replica:1 cluster ()
          in
          let s = Zk.Session.wrap ~sim ~replicas:[ 1; 2 ] c in
          let i = ref 0 in
          Workload.repeat sim ~until:ops_end (fun () ->
              incr i;
              let v = !i in
              let id = Ck_history.invoke history ~client:1 Ck_history.Incr in
              (match
                 Zk.Session.call s
                   ~op:(Zk.Session.Write { idempotent = true })
                   (fun c -> Zk.Client.set_data c "/ctr" (string_of_int v))
               with
              | Ok _ ->
                  incr writes_ok;
                  Ck_history.ok history id (Ck_history.R_int v)
              | Error e ->
                  Ck_history.fail history id (Zk.Zerror.to_string e));
              Proc.sleep sim (Sim_time.ms 40))));
  Sim.run ~until:(Sim_time.add ops_end (Sim_time.sec 3)) sim;
  let nem = Option.get !nemesis in
  let violations = Ck_freshness.check_realtime (Ck_history.entries history) in
  {
    sr_seed = seed;
    sr_unsafe = unsafe;
    sr_violations = List.length violations;
    sr_witnesses =
      List.filteri (fun i _ -> i < 3) violations
      |> List.map (fun v -> Fmt.str "%a" Ck_freshness.pp_violation v);
    sr_reads_ok = !reads_ok;
    sr_reads_refused = !reads_refused;
    sr_writes_ok = !writes_ok;
    sr_clock_skews = Nemesis.clock_skews nem;
    sr_partitions = Nemesis.partitions nem;
    sr_lease_reads = Zk.Server.lease_reads (Zk.Cluster.servers cluster).(0);
    sr_trace = Nemesis.trace_to_string nem;
  }
