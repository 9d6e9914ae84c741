(* The linearizability checker: sequential models, the WGL search
   (real-time order, "maybe applied" semantics, budget, counterexample
   minimization), the history recorder, and the end-to-end harness
   integration — including the mutation self-test that re-enables a
   known-bad Zab behaviour and demands the checker catch it. *)

open Edc_simnet
module H = Edc_checker.History
module M = Edc_checker.Model
module W = Edc_checker.Wgl
module Instrument = Edc_checker.Instrument
module Experiment = Edc_harness.Experiment
module Systems = Edc_harness.Systems
module Zab = Edc_replication.Zab

let entry ?(client = 0) id op ~inv ?ret outcome =
  {
    H.id;
    client;
    op;
    inv = Sim_time.ms inv;
    ret = Option.map Sim_time.ms ret;
    outcome;
  }

let lin = Alcotest.testable W.pp_verdict (fun a b -> W.is_ok a = W.is_ok b)
let ok_v = W.Linearizable { ops = 0; states = 0 }

let bad_v =
  W.Non_linearizable
    {
      W.cx_cut = None;
      cx_ops = 0;
      cx_required = 0;
      cx_linearized = 0;
      cx_window = [];
    }

let check_counter = W.check M.counter
let check_queue = W.check M.queue
let check_mutex = W.check M.mutex

(* --- counter model ------------------------------------------------- *)

let test_counter_sequential () =
  let h =
    [
      entry 0 H.Incr ~inv:0 ~ret:10 (H.Done (H.R_int 1));
      entry 1 H.Incr ~inv:20 ~ret:30 (H.Done (H.R_int 2));
      entry 2 H.Ctr_read ~inv:40 ~ret:50
        (H.Done (H.R_obj { data = "2"; version = 2 }));
    ]
  in
  Alcotest.check lin "sequential counter" ok_v (check_counter h)

let test_counter_duplicate_value () =
  (* two increments both told "1": some apply was double-counted *)
  let h =
    [
      entry ~client:1 0 H.Incr ~inv:0 ~ret:100 (H.Done (H.R_int 1));
      entry ~client:2 1 H.Incr ~inv:0 ~ret:100 (H.Done (H.R_int 1));
    ]
  in
  Alcotest.check lin "duplicate increment result" bad_v (check_counter h)

let test_counter_stale_read () =
  let h =
    [
      entry 0 H.Incr ~inv:0 ~ret:10 (H.Done (H.R_int 1));
      entry 1 H.Ctr_read ~inv:20 ~ret:30
        (H.Done (H.R_obj { data = "0"; version = 0 }));
    ]
  in
  Alcotest.check lin "stale read after completed incr" bad_v (check_counter h)

let test_counter_concurrent_read_flexible () =
  (* the read overlaps the increment: both "0" and "1" are legal *)
  let h old =
    [
      entry ~client:1 0 H.Incr ~inv:0 ~ret:100 (H.Done (H.R_int 1));
      entry ~client:2 1 H.Ctr_read ~inv:10 ~ret:20
        (H.Done (H.R_obj { data = old; version = 0 }));
    ]
  in
  Alcotest.check lin "concurrent read sees old" ok_v (check_counter (h "0"));
  Alcotest.check lin "concurrent read sees new" ok_v (check_counter (h "1"))

let test_counter_version_ignored () =
  (* versions are backend metadata: same data, wild version must pass *)
  let h =
    [
      entry 0 H.Ctr_read ~inv:0 ~ret:10
        (H.Done (H.R_obj { data = "0"; version = 774 }));
    ]
  in
  Alcotest.check lin "version not part of the model" ok_v (check_counter h)

let test_counter_cas () =
  let h =
    [
      entry 0 (H.Ctr_cas { expected_data = "0"; data = "1" }) ~inv:0 ~ret:10
        (H.Done (H.R_bool true));
      entry 1 (H.Ctr_cas { expected_data = "0"; data = "1" }) ~inv:20 ~ret:30
        (H.Done (H.R_bool true));
    ]
  in
  Alcotest.check lin "second cas against stale value cannot win" bad_v
    (check_counter h);
  let h2 =
    [
      entry 0 (H.Ctr_cas { expected_data = "0"; data = "1" }) ~inv:0 ~ret:10
        (H.Done (H.R_bool true));
      entry 1 (H.Ctr_cas { expected_data = "0"; data = "1" }) ~inv:20 ~ret:30
        (H.Done (H.R_bool false));
    ]
  in
  Alcotest.check lin "losing cas reports false" ok_v (check_counter h2)

(* --- maybe-applied (info) semantics -------------------------------- *)

let test_maybe_applied_both_ways () =
  let read_after value =
    [
      entry ~client:1 0 H.Incr ~inv:0 (H.Open (Some "maybe applied"));
      entry ~client:2 1 H.Ctr_read ~inv:50 ~ret:60
        (H.Done (H.R_obj { data = value; version = 0 }));
    ]
  in
  Alcotest.check lin "ambiguous incr may have applied" ok_v
    (check_counter (read_after "1"));
  Alcotest.check lin "ambiguous incr may have not applied" ok_v
    (check_counter (read_after "0"))

let test_maybe_applied_cannot_unapply () =
  let h =
    [
      entry ~client:1 0 H.Incr ~inv:0 (H.Open (Some "maybe applied"));
      entry ~client:2 1 H.Ctr_read ~inv:50 ~ret:60
        (H.Done (H.R_obj { data = "1"; version = 0 }));
      entry ~client:2 2 H.Ctr_read ~inv:70 ~ret:80
        (H.Done (H.R_obj { data = "0"; version = 0 }));
    ]
  in
  Alcotest.check lin "an observed effect cannot disappear" bad_v
    (check_counter h)

let test_failed_op_has_no_effect () =
  (* a definite failure must NOT be allowed to explain an observed bump *)
  let h =
    [
      entry ~client:1 0 H.Incr ~inv:0 ~ret:10 (H.Failed "no node");
      entry ~client:2 1 H.Ctr_read ~inv:50 ~ret:60
        (H.Done (H.R_obj { data = "1"; version = 0 }));
    ]
  in
  Alcotest.check lin "failed incr cannot explain the read" bad_v
    (check_counter h)

(* --- queue model ---------------------------------------------------- *)

let test_queue_fifo () =
  let deq data =
    [
      entry 0 (H.Enq { eid = "a"; data = "da" }) ~inv:0 ~ret:10
        (H.Done H.R_unit);
      entry 1 (H.Enq { eid = "b"; data = "db" }) ~inv:20 ~ret:30
        (H.Done H.R_unit);
      entry 2 H.Deq ~inv:40 ~ret:50 (H.Done (H.R_opt data));
    ]
  in
  Alcotest.check lin "dequeues the head" ok_v (check_queue (deq (Some "da")));
  Alcotest.check lin "dequeuing the tail breaks FIFO" bad_v
    (check_queue (deq (Some "db")));
  Alcotest.check lin "empty poll with elements present" bad_v
    (check_queue (deq None))

let test_queue_no_invention () =
  let h =
    [ entry 0 H.Deq ~inv:0 ~ret:10 (H.Done (H.R_opt (Some "ghost"))) ]
  in
  Alcotest.check lin "cannot dequeue what was never enqueued" bad_v
    (check_queue h)

let test_queue_traditional_delete () =
  let h ok_elem =
    [
      entry 0 (H.Enq { eid = "a"; data = "da" }) ~inv:0 ~ret:10
        (H.Done H.R_unit);
      entry 1 (H.Enq { eid = "b"; data = "db" }) ~inv:20 ~ret:30
        (H.Done H.R_unit);
      entry 2 (H.Deq_elem ok_elem) ~inv:40 ~ret:50 (H.Done (H.R_bool true));
    ]
  in
  Alcotest.check lin "FIFO walk deletes the head" ok_v (check_queue (h "a"));
  Alcotest.check lin "deleting a non-head element breaks FIFO" bad_v
    (check_queue (h "b"))

let test_queue_read_multiset () =
  let h =
    [
      entry 0 (H.Enq { eid = "a"; data = "da" }) ~inv:0 ~ret:10
        (H.Done H.R_unit);
      entry 1 (H.Enq { eid = "b"; data = "db" }) ~inv:20 ~ret:30
        (H.Done H.R_unit);
      (* capture sorts, so element order in the snapshot is irrelevant *)
      entry 2 H.Q_read ~inv:40 ~ret:50
        (H.Done (H.R_multiset [ "da"; "db" ]));
    ]
  in
  Alcotest.check lin "snapshot read" ok_v (check_queue h);
  let missing =
    [
      entry 0 (H.Enq { eid = "a"; data = "da" }) ~inv:0 ~ret:10
        (H.Done H.R_unit);
      entry 1 H.Q_read ~inv:40 ~ret:50 (H.Done (H.R_multiset []));
    ]
  in
  Alcotest.check lin "lost element visible in snapshot" bad_v
    (check_queue missing)

(* --- mutex model ---------------------------------------------------- *)

let test_mutex () =
  let good =
    [
      entry ~client:1 0 H.Acquire ~inv:0 ~ret:10 (H.Done H.R_unit);
      entry ~client:1 1 H.Release ~inv:20 ~ret:30 (H.Done H.R_unit);
      entry ~client:2 2 H.Acquire ~inv:40 ~ret:50 (H.Done H.R_unit);
    ]
  in
  Alcotest.check lin "alternating lock" ok_v (check_mutex good);
  let overlap =
    [
      entry ~client:1 0 H.Acquire ~inv:0 ~ret:10 (H.Done H.R_unit);
      entry ~client:2 1 H.Acquire ~inv:20 ~ret:30 (H.Done H.R_unit);
      entry ~client:1 2 H.Release ~inv:40 ~ret:50 (H.Done H.R_unit);
    ]
  in
  Alcotest.check lin "two holders at once" bad_v (check_mutex overlap);
  let stranger =
    [
      entry ~client:1 0 H.Acquire ~inv:0 ~ret:10 (H.Done H.R_unit);
      entry ~client:2 1 H.Release ~inv:20 ~ret:30 (H.Done H.R_unit);
    ]
  in
  Alcotest.check lin "release by non-holder" bad_v (check_mutex stranger)

(* --- gate (barrier) property ---------------------------------------- *)

let test_gate () =
  let enter ~client id ~inv ~ret =
    entry ~client id (H.Enter "/bar1") ~inv ~ret (H.Done H.R_unit)
  in
  let good = [ enter ~client:1 0 ~inv:0 ~ret:100; enter ~client:2 1 ~inv:50 ~ret:100 ] in
  (match M.check_gate ~threshold:2 good with
  | Ok () -> ()
  | Error e -> Alcotest.failf "gate should pass: %s" e);
  let bad = [ enter ~client:1 0 ~inv:0 ~ret:40; enter ~client:2 1 ~inv:50 ~ret:60 ] in
  (match M.check_gate ~threshold:2 bad with
  | Ok () -> Alcotest.fail "gate should catch the early return"
  | Error _ -> ());
  match M.check_gate ~threshold:3 good with
  | Ok () -> Alcotest.fail "gate should catch returns below threshold"
  | Error _ -> ()

(* --- search machinery ----------------------------------------------- *)

let test_budget () =
  let h =
    List.init 8 (fun i ->
        entry ~client:i i H.Incr ~inv:0 ~ret:1000 (H.Done (H.R_int (i + 1))))
  in
  match W.check ~max_steps:3 M.counter h with
  | W.Budget_exhausted _ -> ()
  | v -> Alcotest.failf "expected budget exhaustion, got %a" W.pp_verdict v

let test_memoization_scales () =
  (* 2 clients x 100 alternating increments with overlapping windows:
     without configuration memoization this explodes; with it, it is
     near-linear and must finish comfortably within the budget *)
  let h =
    List.init 200 (fun i ->
        entry ~client:(i mod 2) i H.Incr ~inv:(i * 10) ~ret:((i * 10) + 15)
          (H.Done (H.R_int (i + 1))))
  in
  Alcotest.check lin "long overlapped history" ok_v
    (W.check ~max_steps:100_000 M.counter h)

let test_counterexample_window () =
  (* ten good increments, then a read that can never be explained: the
     minimized window should isolate the read, not drag the whole run *)
  let incrs =
    List.init 10 (fun i ->
        entry i H.Incr ~inv:(i * 100) ~ret:((i * 100) + 10)
          (H.Done (H.R_int (i + 1))))
  in
  let bad_read =
    entry 10 H.Ctr_read ~inv:450 ~ret:460
      (H.Done (H.R_obj { data = "99"; version = 0 }))
  in
  match W.check M.counter (incrs @ [ bad_read ]) with
  | W.Non_linearizable cx ->
      Alcotest.(check bool) "window mentions the bad read" true
        (List.exists (fun (e : H.entry) -> e.H.id = 10) cx.W.cx_window);
      Alcotest.(check bool)
        (Fmt.str "prefix minimized (%d ops <= 6)" cx.W.cx_ops)
        true (cx.W.cx_ops <= 6);
      Alcotest.(check bool) "cut recorded" true (cx.W.cx_cut <> None);
      (* the window pretty-printer is part of the bench/test UX *)
      let s = Fmt.str "%a" W.pp_verdict (W.Non_linearizable cx) in
      Alcotest.(check bool) "printable" true (String.length s > 0)
  | v -> Alcotest.failf "expected a counterexample, got %a" W.pp_verdict v

(* --- the recorder ---------------------------------------------------- *)

let test_recorder () =
  let sim = Sim.create ~seed:1 () in
  let h = H.create ~sim () in
  Proc.spawn sim (fun () ->
      let a = H.invoke h ~client:1 H.Incr in
      Proc.sleep sim (Sim_time.ms 10);
      H.ok h a (H.R_int 1);
      let b = H.invoke h ~client:2 H.Incr in
      Proc.sleep sim (Sim_time.ms 5);
      H.info h b "maybe applied";
      let c = H.invoke h ~client:1 (H.Enq { eid = "x"; data = "d" }) in
      Proc.sleep sim (Sim_time.ms 5);
      H.fail h c "node exists";
      ignore (H.invoke h ~client:3 H.Deq));
  Sim.run ~until:(Sim_time.sec 1) sim;
  let entries = H.entries h in
  Alcotest.(check int) "four ops" 4 (List.length entries);
  Alcotest.(check int) "seven events" 7 (H.n_events h);
  let by_id id = List.find (fun (e : H.entry) -> e.H.id = id) entries in
  (match (by_id 0).H.outcome with
  | H.Done (H.R_int 1) -> ()
  | _ -> Alcotest.fail "op 0 should be Done 1");
  (match (by_id 1).H.outcome with
  | H.Open (Some "maybe applied") -> ()
  | _ -> Alcotest.fail "op 1 should be ambiguous");
  (match (by_id 2).H.outcome with
  | H.Failed "node exists" -> ()
  | _ -> Alcotest.fail "op 2 should be Failed");
  (match (by_id 3).H.outcome with
  | H.Open None -> ()
  | _ -> Alcotest.fail "op 3 never concluded");
  Alcotest.(check bool) "entries sorted by invocation" true
    (let invs = List.map (fun (e : H.entry) -> e.H.inv) entries in
     List.sort compare invs = invs);
  (* split: counter ops and queue ops separate *)
  let parts = H.split entries in
  Alcotest.(check int) "two objects" 2 (List.length parts);
  Alcotest.(check int) "counter part" 2
    (List.length (List.assoc "counter" parts));
  Alcotest.(check int) "queue part" 2 (List.length (List.assoc "queue" parts))

(* check_objects: one verdict per modelled object in split order; the
   barrier entry has no sequential model and is skipped *)
let test_check_objects () =
  let record ~second_incr =
    let sim = Sim.create ~seed:1 () in
    let h = H.create ~sim () in
    Proc.spawn sim (fun () ->
        let step client op response =
          let id = H.invoke h ~client op in
          Proc.sleep sim (Sim_time.ms 10);
          H.ok h id response
        in
        step 3 (H.Enter "b") H.R_unit;
        step 1 (H.Enq { eid = "a"; data = "da" }) H.R_unit;
        step 2 H.Incr (H.R_int 1);
        step 1 H.Deq (H.R_opt (Some "da"));
        step 2 H.Incr (H.R_int second_incr));
    Sim.run ~until:(Sim_time.sec 1) sim;
    (List.map fst (H.split (H.entries h)), W.check_objects h)
  in
  let split_order, verdicts = record ~second_incr:2 in
  Alcotest.(check (list string)) "modelled objects in split order"
    (List.filter (fun o -> o <> "barrier") split_order)
    (List.map fst verdicts);
  Alcotest.(check int) "one verdict per modelled object" 2
    (List.length verdicts);
  Alcotest.check lin "queue" ok_v (List.assoc "queue" verdicts);
  Alcotest.check lin "counter" ok_v (List.assoc "counter" verdicts);
  (* a double-applied increment: both callers told 1 *)
  let _, verdicts = record ~second_incr:1 in
  Alcotest.check lin "queue untouched by the plant" ok_v
    (List.assoc "queue" verdicts);
  Alcotest.check lin "counter convicted" bad_v (List.assoc "counter" verdicts)

let test_error_classification () =
  Alcotest.(check bool) "node exists is definite" true
    (Instrument.is_definite_error "node exists");
  Alcotest.(check bool) "extension rejection is definite" true
    (Instrument.is_definite_error "extension error: bad argument");
  Alcotest.(check bool) "maybe applied is ambiguous" false
    (Instrument.is_definite_error "maybe applied");
  Alcotest.(check bool) "timeout is ambiguous" false
    (Instrument.is_definite_error "timeout");
  Alcotest.(check bool) "unknown errors stay ambiguous" false
    (Instrument.is_definite_error "some novel failure")

(* --- harness integration --------------------------------------------- *)

let assert_all_linearizable what (p : Experiment.chaos_point) =
  Alcotest.(check (list string))
    (what ^ ": invariants")
    [] p.Experiment.ch_invariant_failures;
  Alcotest.(check bool) (what ^ ": history captured") true
    (p.Experiment.ch_history_events > 0);
  List.iter
    (fun (obj, v) ->
      if not (W.is_ok v) then
        Alcotest.failf "%s: %s not linearizable: %a" what obj W.pp_verdict v)
    p.Experiment.ch_lin

let test_chaos_healthy_checked () =
  (* one full chaos run per backend family with the checker on: the
     per-object searches must come back Linearizable *)
  assert_all_linearizable "EZK"
    (Experiment.chaos_point ~seed:7 ~horizon:(Sim_time.sec 12) Systems.Ezk);
  assert_all_linearizable "EDS"
    (Experiment.chaos_point ~seed:7 ~horizon:(Sim_time.sec 12) Systems.Eds)

(* The membership run is the chaos fault run plus an autoscaling driver:
   same invariants, same per-object WGL pass, and the 3 -> 5 -> 3 life
   cycle must complete and reproduce under the same seed. *)
let test_membership_checked () =
  let p = Experiment.membership_point ~seed:42 Systems.Ezk in
  let r = p.Experiment.mp_run in
  assert_all_linearizable "membership" r;
  Alcotest.(check (list int)) "back to the original three" [ 0; 1; 2 ]
    p.Experiment.mp_members_final;
  Alcotest.(check int) "two grows" 2 (List.length p.Experiment.mp_grow_ms);
  Alcotest.(check int) "two shrinks" 2 (List.length p.Experiment.mp_shrink_ms);
  let again = Experiment.membership_point ~seed:42 Systems.Ezk in
  let r' = again.Experiment.mp_run in
  Alcotest.(check string) "same-seed fault trace" r.Experiment.ch_trace
    r'.Experiment.ch_trace;
  Alcotest.(check (list int)) "same-seed counters"
    [
      r.Experiment.ch_counter_confirmed;
      r.Experiment.ch_counter_maybe;
      r.Experiment.ch_counter_final;
    ]
    [
      r'.Experiment.ch_counter_confirmed;
      r'.Experiment.ch_counter_maybe;
      r'.Experiment.ch_counter_final;
    ];
  Alcotest.(check (list (float 0.))) "same-seed recovery windows"
    p.Experiment.mp_recovery_s again.Experiment.mp_recovery_s

let test_lin_recipes_healthy () =
  let p = Experiment.lin_recipes_point ~seed:5 Systems.Ezk in
  (match p.Experiment.lp_lock with
  | v when W.is_ok v -> ()
  | v -> Alcotest.failf "leadership not linearizable: %a" W.pp_verdict v);
  match p.Experiment.lp_barrier with
  | Ok () -> ()
  | Error e -> Alcotest.failf "barrier gate violated: %s" e

(* The mutation self-test: skip Zab's log-matching checks (a historical
   bug this repo fixed under chaos) and demand that the checker convicts
   some seed with a printed counterexample window.  A checker that cannot
   re-find a known consistency bug is not a correctness oracle.

   The schedule is pure leader isolation: a partitioned leader keeps
   accepting client writes it cannot commit, so on heal it holds a
   divergent uncommitted tail — exactly the state the skipped
   log-matching check exists to repair.  (Crash+restarts would mask the
   bug: a restarted replica rebuilds its state machine from the repaired
   log.)  The same schedule with the flag off stays linearizable on
   every one of these seeds. *)
let mutation_schedule =
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

let test_zab_mutation_caught () =
  let zab_config =
    { Zab.default_config with Zab.unsafe_skip_log_matching = true }
  in
  let seeds = List.init 5 (fun i -> 42 + i) in
  let convicted =
    List.find_map
      (fun seed ->
        let p =
          Experiment.chaos_point ~seed ~zab_config ~schedule:mutation_schedule
            ~horizon:(Sim_time.sec 12) Systems.Ezk
        in
        List.find_map
          (fun (obj, v) ->
            match v with
            | W.Non_linearizable cx -> Some (seed, obj, cx)
            | _ -> None)
          p.Experiment.ch_lin)
      seeds
  in
  match convicted with
  | Some (seed, obj, cx) ->
      Fmt.epr
        "@[<v>mutation self-test: seed %d convicted object %S:@,%a@]@." seed
        obj W.pp_verdict (W.Non_linearizable cx);
      Alcotest.(check bool) "counterexample window is non-empty" true
        (cx.W.cx_window <> [])
  | None ->
      Alcotest.fail
        "re-enabled divergent-tail bug, but no seed produced a \
         non-linearizable verdict"

(* --- stale-read freshness detector (§6i) --------------------------- *)

module F = Edc_checker.Freshness

let test_freshness_clean_history_passes () =
  let h =
    [
      entry ~client:1 0 H.Incr ~inv:0 ~ret:10 (H.Done (H.R_int 1));
      entry ~client:2 1 H.Ctr_read ~inv:20 ~ret:30
        (H.Done (H.R_obj { data = "1"; version = 1 }));
      entry ~client:1 2 H.Incr ~inv:40 ~ret:50 (H.Done (H.R_int 2));
      entry ~client:2 3 H.Ctr_read ~inv:60 ~ret:70
        (H.Done (H.R_obj { data = "2"; version = 2 }));
    ]
  in
  Alcotest.(check int) "session clean" 0 (List.length (F.check_session h));
  Alcotest.(check int) "realtime clean" 0 (List.length (F.check_realtime h))

let test_freshness_realtime_convicts_stale_read () =
  (* client 1's increment to 2 completes at t=50; client 2's read starts
     at t=60 yet returns 1 — stale in real time even though client 2's own
     session is monotone *)
  let h =
    [
      entry ~client:1 0 H.Incr ~inv:0 ~ret:10 (H.Done (H.R_int 1));
      entry ~client:1 1 H.Incr ~inv:40 ~ret:50 (H.Done (H.R_int 2));
      entry ~client:2 2 H.Ctr_read ~inv:60 ~ret:70
        (H.Done (H.R_obj { data = "1"; version = 1 }));
    ]
  in
  (match F.check_realtime h with
  | [ v ] ->
      Alcotest.(check int) "convicted read" 2 v.F.v_op;
      Alcotest.(check int) "returned" 1 v.F.v_observed;
      Alcotest.(check int) "already observed" 2 v.F.v_expected;
      Alcotest.(check int) "witnessing op" 1 v.F.v_witness
  | vs -> Alcotest.failf "expected exactly one violation, got %d"
            (List.length vs));
  Alcotest.(check int) "per-session sweep cannot see it" 0
    (List.length (F.check_session h))

let test_freshness_concurrent_ops_impose_no_bound () =
  (* the read overlaps the increment (and the tie at t=50 counts as
     concurrent): returning the old value is fresh enough *)
  let h =
    [
      entry ~client:1 0 H.Incr ~inv:0 ~ret:50 (H.Done (H.R_int 2));
      entry ~client:2 1 H.Ctr_read ~inv:50 ~ret:60
        (H.Done (H.R_obj { data = "1"; version = 1 }));
      entry ~client:3 2 H.Ctr_read ~inv:30 ~ret:80
        (H.Done (H.R_obj { data = "1"; version = 1 }));
    ]
  in
  Alcotest.(check int) "no violation" 0 (List.length (F.check_realtime h))

let test_freshness_session_convicts_non_monotone_reads () =
  (* observer failover symptom: one client sees 2 then 1 *)
  let h =
    [
      entry ~client:7 0 H.Ctr_read ~inv:0 ~ret:10
        (H.Done (H.R_obj { data = "2"; version = 2 }));
      entry ~client:7 1 H.Ctr_read ~inv:20 ~ret:30
        (H.Done (H.R_obj { data = "1"; version = 1 }));
      (* a DIFFERENT client reading 1 afterwards is fine per-session *)
      entry ~client:8 2 H.Ctr_read ~inv:40 ~ret:50
        (H.Done (H.R_obj { data = "1"; version = 1 }));
    ]
  in
  match F.check_session h with
  | [ v ] ->
      Alcotest.(check int) "client" 7 v.F.v_client;
      Alcotest.(check int) "convicted read" 1 v.F.v_op;
      Alcotest.(check int) "witness" 0 v.F.v_witness
  | vs ->
      Alcotest.failf "expected exactly one violation, got %d" (List.length vs)

let test_freshness_ignores_pending_and_failed () =
  let h =
    [
      entry ~client:1 0 H.Incr ~inv:0 ~ret:10 (H.Done (H.R_int 5));
      (* timed out: no return, never observed *)
      entry ~client:2 1 H.Ctr_read ~inv:20 (H.Open None);
      entry ~client:3 2 H.Ctr_read ~inv:30 ~ret:40 (H.Failed "refused");
    ]
  in
  Alcotest.(check int) "nothing convictable" 0
    (List.length (F.check_realtime h))

let () =
  Alcotest.run "edc_checker"
    [
      ( "models",
        [
          Alcotest.test_case "counter sequential" `Quick test_counter_sequential;
          Alcotest.test_case "counter duplicate value" `Quick
            test_counter_duplicate_value;
          Alcotest.test_case "counter stale read" `Quick test_counter_stale_read;
          Alcotest.test_case "counter concurrent read" `Quick
            test_counter_concurrent_read_flexible;
          Alcotest.test_case "counter version ignored" `Quick
            test_counter_version_ignored;
          Alcotest.test_case "counter cas" `Quick test_counter_cas;
          Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
          Alcotest.test_case "queue no invention" `Quick test_queue_no_invention;
          Alcotest.test_case "queue traditional delete" `Quick
            test_queue_traditional_delete;
          Alcotest.test_case "queue snapshot read" `Quick
            test_queue_read_multiset;
          Alcotest.test_case "mutex" `Quick test_mutex;
          Alcotest.test_case "barrier gate" `Quick test_gate;
        ] );
      ( "maybe-applied",
        [
          Alcotest.test_case "both outcomes legal" `Quick
            test_maybe_applied_both_ways;
          Alcotest.test_case "effects cannot unapply" `Quick
            test_maybe_applied_cannot_unapply;
          Alcotest.test_case "failed ops have no effect" `Quick
            test_failed_op_has_no_effect;
        ] );
      ( "search",
        [
          Alcotest.test_case "budget" `Quick test_budget;
          Alcotest.test_case "memoization scales" `Quick
            test_memoization_scales;
          Alcotest.test_case "counterexample window" `Quick
            test_counterexample_window;
        ] );
      ( "capture",
        [
          Alcotest.test_case "recorder" `Quick test_recorder;
          Alcotest.test_case "error classification" `Quick
            test_error_classification;
          Alcotest.test_case "check_objects per object" `Quick
            test_check_objects;
        ] );
      ( "freshness",
        [
          Alcotest.test_case "clean history passes" `Quick
            test_freshness_clean_history_passes;
          Alcotest.test_case "realtime convicts stale read" `Quick
            test_freshness_realtime_convicts_stale_read;
          Alcotest.test_case "concurrency imposes no bound" `Quick
            test_freshness_concurrent_ops_impose_no_bound;
          Alcotest.test_case "session convicts non-monotone reads" `Quick
            test_freshness_session_convicts_non_monotone_reads;
          Alcotest.test_case "pending and failed ignored" `Quick
            test_freshness_ignores_pending_and_failed;
        ] );
      ( "integration",
        [
          Alcotest.test_case "healthy chaos is linearizable" `Slow
            test_chaos_healthy_checked;
          Alcotest.test_case "membership run is the checked chaos run" `Slow
            test_membership_checked;
          Alcotest.test_case "blocking recipes are linearizable" `Slow
            test_lin_recipes_healthy;
          Alcotest.test_case "zab mutation is caught" `Slow
            test_zab_mutation_caught;
        ] );
    ]
