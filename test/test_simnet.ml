(* Tests for the discrete-event simulation substrate. *)

open Edc_simnet

let time = Alcotest.testable Sim_time.pp Sim_time.equal

(* ------------------------------------------------------------------ *)
(* Sim_time                                                            *)
(* ------------------------------------------------------------------ *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Sim_time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Sim_time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000 (Sim_time.sec 1);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Sim_time.to_float_ms (Sim_time.us 1500));
  Alcotest.check time "of_float_s" (Sim_time.ms 250) (Sim_time.of_float_s 0.25)

let test_time_scale () =
  Alcotest.check time "scale x1.5" (Sim_time.us 150) (Sim_time.scale (Sim_time.us 100) 1.5);
  Alcotest.check time "scale x0" Sim_time.zero (Sim_time.scale (Sim_time.ms 3) 0.0)

(* ------------------------------------------------------------------ *)
(* Event_queue                                                         *)
(* ------------------------------------------------------------------ *)

let test_queue_order () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:30 "c";
  Event_queue.push q ~time:10 "a";
  Event_queue.push q ~time:20 "b";
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, x) ->
        popped := x :: !popped;
        drain ()
  in
  drain ();
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (List.rev !popped)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 99 do
    Event_queue.push q ~time:5 i
  done;
  let out = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | None -> ()
    | Some (_, x) ->
        out := x :: !out;
        drain ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order preserved at equal times"
    (List.init 100 Fun.id) (List.rev !out)

let test_queue_clear () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1 ();
  Event_queue.push q ~time:2 ();
  Alcotest.(check int) "len" 2 (Event_queue.length q);
  Event_queue.clear q;
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check (option (pair int unit))) "pop none" None (Event_queue.pop q)

let prop_queue_sorted =
  QCheck.Test.make ~name:"event_queue pops in nondecreasing time order"
    ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t t) times;
      let rec drain acc =
        match Event_queue.pop q with
        | None -> List.rev acc
        | Some (t, _) -> drain (t :: acc)
      in
      let out = drain [] in
      out = List.sort compare times)

(* A random interleaving of add/push/remove/pop against a sorted-list
   model: every pop returns the model's least [(time, seq)], [length]
   tracks the model after every step, and removing an entry that was
   already popped or removed changes nothing. *)
let prop_queue_matches_model =
  QCheck.Test.make ~name:"event_queue add/push/remove/pop matches a sorted list"
    ~count:300
    QCheck.(list (pair (int_bound 3) (int_bound 50)))
    (fun steps ->
      let q = Event_queue.create () in
      let model = ref [] (* (time, seq), sorted *) in
      let handles = ref [||] in
      let seq = ref 0 in
      let insert time =
        let key = (time, !seq) in
        incr seq;
        model := List.merge compare !model [ key ];
        key
      in
      let check_pop () =
        match (Event_queue.pop q, !model) with
        | None, [] -> true
        | Some (time, id), (time', id') :: rest ->
            model := rest;
            time = time' && id = id'
        | _ -> false
      in
      let step (kind, v) =
        (match kind with
        | 0 ->
            let ((time, id) as key) = insert v in
            handles := Array.append !handles [| (key, Event_queue.add q ~time id) |];
            true
        | 1 ->
            let time, id = insert v in
            Event_queue.push q ~time id;
            true
        | 2 ->
            let n = Array.length !handles in
            if n > 0 then begin
              let key, e = !handles.(v mod n) in
              Event_queue.remove q e;
              model := List.filter (fun k -> k <> key) !model
            end;
            true
        | _ -> check_pop ())
        && Event_queue.length q = List.length !model
      in
      List.for_all step steps
      && List.for_all (fun _ -> check_pop ()) (List.init (List.length !model + 1) Fun.id))

(* Payloads the queue has dropped must be collectable: weak pointers to
   them are cleared by a full major collection.  Each payload is a fresh
   heap block reachable only from the queue, as the simulator's closures
   are. *)
let dropped_payloads_collectable fill drop =
  let n = 64 in
  let weak = Weak.create n in
  let q = Event_queue.create () in
  fill q (fun i ->
      let payload = Sys.opaque_identity (ref i) in
      Weak.set weak i (Some payload);
      payload);
  drop q;
  Gc.full_major ();
  Alcotest.(check int) "queue empty" 0 (Event_queue.length q);
  Alcotest.(check int) "dropped payloads still reachable" 0
    (List.length (List.filter (fun i -> Weak.check weak i) (List.init n Fun.id)))

let test_queue_clear_releases () =
  dropped_payloads_collectable
    (fun q payload -> for i = 0 to 63 do Event_queue.push q ~time:i (payload i) done)
    Event_queue.clear

let test_queue_pop_releases () =
  (* one entry popped at a time, the queue emptying after each *)
  dropped_payloads_collectable
    (fun q payload ->
      for i = 0 to 63 do
        Event_queue.push q ~time:i (payload i);
        ignore (Sys.opaque_identity (Event_queue.pop q))
      done)
    ignore

let test_queue_remove_releases () =
  dropped_payloads_collectable
    (fun q payload ->
      let entries = List.init 64 (fun i -> Event_queue.add q ~time:i (payload i)) in
      (* last first, so each removal vacates the tail slot itself *)
      List.iter (Event_queue.remove q) (List.rev entries))
    ignore

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let c = Rng.split a in
  let before = Rng.int c 1_000_000 in
  (* Drawing from the parent must not perturb the child's stream. *)
  let a2 = Rng.create 7 in
  let c2 = Rng.split a2 in
  ignore (Rng.int a2 10 : int);
  Alcotest.(check int) "child unaffected by parent draws" before (Rng.int c2 1_000_000 |> fun x -> if x = before then before else x);
  ignore before

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create seed in
      let x = Rng.float r in
      x >= 0.0 && x < 1.0)

(* ------------------------------------------------------------------ *)
(* Trace                                                               *)
(* ------------------------------------------------------------------ *)

(* A trace line is one line however long it grows: the break hints of a
   member set print as spaces, never as a newline that leaves the rest of
   the message on a line without the timestamp prefix. *)
let test_trace_long_line () =
  let sim = Sim.create ~seed:1 () in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let report _src _level ~over k msgf =
    msgf (fun ?header:_ ?tags:_ fmt ->
        Format.kfprintf
          (fun ppf ->
            Format.pp_print_newline ppf ();
            over ();
            k ())
          ppf fmt)
  in
  let reporter = Logs.reporter () and level = Logs.level () in
  Logs.set_reporter { Logs.report };
  Logs.set_level (Some Logs.Debug);
  let members = List.init 40 Fun.id in
  Fun.protect
    ~finally:(fun () ->
      Logs.set_reporter reporter;
      Logs.set_level level)
    (fun () ->
      Trace.debugf sim "zab[0] config@7 -> joint({%a}->{%a})"
        Fmt.(list ~sep:comma int)
        members
        Fmt.(list ~sep:comma int)
        members);
  let set = String.concat ", " (List.map string_of_int members) in
  match String.split_on_char '\n' (Buffer.contents buf) with
  | [ line; "" ] ->
      let want = Printf.sprintf "] zab[0] config@7 -> joint({%s}->{%s})" set set in
      if
        not
          (String.starts_with ~prefix:"[" line && String.ends_with ~suffix:want line)
      then Alcotest.failf "trace line %S" line
  | _ -> Alcotest.failf "one debugf printed %S" (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Sim                                                                 *)
(* ------------------------------------------------------------------ *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~after:(Sim_time.ms 3) (fun () -> log := "c" :: !log);
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () -> log := "a" :: !log);
  Sim.schedule sim ~after:(Sim_time.ms 2) (fun () -> log := "b" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "in time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.check time "clock at last event" (Sim_time.ms 3) (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () -> incr fired);
  Sim.schedule sim ~after:(Sim_time.ms 10) (fun () -> incr fired);
  Sim.run ~until:(Sim_time.ms 5) sim;
  Alcotest.(check int) "only first fired" 1 !fired;
  Alcotest.check time "clock at horizon" (Sim_time.ms 5) (Sim.now sim);
  Sim.run sim;
  Alcotest.(check int) "second fires on resume" 2 !fired

let test_sim_nested_schedule () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () ->
      log := "outer" :: !log;
      Sim.schedule sim ~after:(Sim_time.ms 1) (fun () -> log := "inner" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.check time "clock" (Sim_time.ms 2) (Sim.now sim)

let test_sim_max_events () =
  let sim = Sim.create () in
  (* A self-perpetuating event chain: max_events must bound it. *)
  let rec tick () = Sim.schedule sim ~after:(Sim_time.us 1) (fun () -> tick ()) in
  tick ();
  Sim.run ~max_events:100 sim;
  Alcotest.(check int) "bounded" 100 (Sim.executed_events sim)

let test_sim_cancel () =
  let sim = Sim.create () in
  let log = ref [] in
  let note x () = log := x :: !log in
  Sim.schedule sim ~after:(Sim_time.ms 2) (note "a");
  let doomed = Sim.timer sim ~after:(Sim_time.ms 2) (note "cancelled") in
  Sim.schedule sim ~after:(Sim_time.ms 2) (note "b");
  Sim.schedule sim ~after:(Sim_time.ms 1) (note "first");
  Alcotest.(check int) "queued" 4 (Sim.pending sim);
  Sim.cancel sim doomed;
  Alcotest.(check int) "cancel removes at once" 3 (Sim.pending sim);
  Sim.cancel sim doomed;
  Alcotest.(check int) "second cancel is a no-op" 3 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list string)) "survivors keep their order"
    [ "first"; "a"; "b" ] (List.rev !log);
  Alcotest.(check int) "cancelled never executes" 3 (Sim.executed_events sim);
  let fired = Sim.timer sim ~after:Sim_time.zero (note "fired") in
  Sim.run sim;
  Sim.cancel sim fired;
  Alcotest.(check int) "cancel after firing is a no-op" 0 (Sim.pending sim)

let test_sim_stop () =
  let sim = Sim.create () in
  let fired = ref 0 in
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () ->
      incr fired;
      Sim.stop sim);
  Sim.schedule sim ~after:(Sim_time.ms 2) (fun () -> incr fired);
  Sim.run sim;
  Alcotest.(check int) "stopped after first" 1 !fired

(* Turns: [defer] runs at once unless an outer loop owns the end of the
   turn. *)

let test_sim_defer_undriven () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.defer sim (fun () -> log := "a" :: !log);
  Alcotest.(check (list string)) "ran before defer returned" [ "a" ] !log;
  Sim.end_turn sim;
  Alcotest.(check (list string)) "end_turn has nothing to rerun" [ "a" ] !log

let test_sim_defer_turn_driven () =
  let sim = Sim.create () in
  Sim.set_turn_driven sim;
  let log = ref [] in
  let note x () = log := x :: !log in
  Sim.defer sim (note "a");
  Sim.defer sim (fun () ->
      note "b" ();
      (* deferred while the turn ends: drained by the same end_turn *)
      Sim.defer sim (note "d"));
  Sim.defer sim (note "c");
  Alcotest.(check (list string)) "nothing runs before the turn ends" [] !log;
  Alcotest.(check int) "deferred work is not an event" 0 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list string)) "nor does Sim.run end the turn" [] !log;
  Sim.end_turn sim;
  Alcotest.(check (list string)) "FIFO, nested work drained in the same call"
    [ "a"; "b"; "c"; "d" ] (List.rev !log);
  Alcotest.(check int) "no events executed" 0 (Sim.executed_events sim)

(* ------------------------------------------------------------------ *)
(* Proc                                                                *)
(* ------------------------------------------------------------------ *)

let test_proc_async_await () =
  let sim = Sim.create () in
  let result = ref 0 in
  let p = Proc.async sim (fun () -> 41 + 1) in
  Proc.spawn sim (fun () -> result := Proc.await p);
  Sim.run sim;
  Alcotest.(check int) "async value" 42 !result

let test_proc_sleep_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Proc.spawn sim (fun () ->
      Proc.sleep sim (Sim_time.ms 2);
      log := "slow" :: !log);
  Proc.spawn sim (fun () ->
      Proc.sleep sim (Sim_time.ms 1);
      log := "fast" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "wakeup order" [ "fast"; "slow" ] (List.rev !log)

let test_proc_promise_roundtrip () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  let got = ref "" in
  Proc.spawn sim (fun () -> got := Proc.await p);
  Sim.schedule sim ~after:(Sim_time.ms 5) (fun () -> Proc.fulfill p "hello");
  Sim.run sim;
  Alcotest.(check string) "value through promise" "hello" !got;
  Alcotest.check time "awaiter resumed at fulfill time" (Sim_time.ms 5) (Sim.now sim)

let test_proc_await_already_fulfilled () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  Proc.fulfill p 7;
  let got = ref 0 in
  Proc.spawn sim (fun () -> got := Proc.await p);
  Sim.run sim;
  Alcotest.(check int) "immediate value" 7 !got

let test_proc_try_fulfill () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  Alcotest.(check bool) "first wins" true (Proc.try_fulfill p 1);
  Alcotest.(check bool) "second loses" false (Proc.try_fulfill p 2);
  Alcotest.(check (option int)) "kept first" (Some 1) (Proc.value_opt p)

let test_proc_fulfill_twice_raises () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  Proc.fulfill p ();
  Alcotest.check_raises "double fulfill"
    (Invalid_argument "Proc.fulfill: already fulfilled") (fun () ->
      Proc.fulfill p ())

let test_proc_await_timeout_expires () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  let got = ref (Some 99) in
  Proc.spawn sim (fun () ->
      got := Proc.await_timeout sim p ~timeout:(Sim_time.ms 1));
  Sim.schedule sim ~after:(Sim_time.ms 10) (fun () -> Proc.fulfill p 5);
  Sim.run sim;
  Alcotest.(check (option int)) "timed out" None !got

let test_proc_await_timeout_wins () =
  let sim = Sim.create () in
  let p = Proc.promise sim in
  let got = ref None and pending = ref (-1) in
  Proc.spawn sim (fun () ->
      got := Proc.await_timeout sim p ~timeout:(Sim_time.ms 10);
      pending := Sim.pending sim);
  Sim.schedule sim ~after:(Sim_time.ms 1) (fun () -> Proc.fulfill p 5);
  Sim.run sim;
  Alcotest.(check (option int)) "value before timeout" (Some 5) !got;
  Alcotest.(check int) "beaten timer left the heap" 0 !pending;
  Alcotest.check time "clock stops at the value" (Sim_time.ms 1) (Sim.now sim)

let test_proc_join () =
  let sim = Sim.create () in
  let ps = List.init 5 (fun i -> Proc.async sim (fun () ->
      Proc.sleep sim (Sim_time.ms i)))
  in
  let done_ = ref false in
  Proc.spawn sim (fun () ->
      Proc.join ps;
      done_ := true);
  Sim.run sim;
  Alcotest.(check bool) "joined all" true !done_

exception Fibre_failed of string

(* The contract the experiment drivers rely on: nothing between a fibre
   and the caller of [Sim.run] catches, so a failing fibre stops the run
   at the instant it raises, before any later event. *)
let test_proc_exception_escapes_run () =
  let escapes what start =
    let sim = Sim.create () in
    let later = ref false in
    start sim (fun () -> raise (Fibre_failed what));
    Sim.schedule sim ~after:(Sim_time.ms 10) (fun () -> later := true);
    Alcotest.check_raises what (Fibre_failed what) (fun () -> Sim.run sim);
    Alcotest.(check bool) (what ^ ": no later event ran") false !later
  in
  escapes "raise right after spawn" (fun sim fail -> Proc.spawn sim fail);
  escapes "raise after sleep" (fun sim fail ->
      Proc.spawn sim (fun () ->
          Proc.sleep sim (Sim_time.ms 1);
          fail ()));
  escapes "raise in a fibre started by a fibre" (fun sim fail ->
      Proc.spawn sim (fun () ->
          Proc.sleep sim (Sim_time.ms 1);
          Proc.await (Proc.async sim fail)))

(* ------------------------------------------------------------------ *)
(* Net                                                                 *)
(* ------------------------------------------------------------------ *)

let test_net_delivery () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let got = ref None in
  Net.register net 2 (fun ~src ~size msg -> got := Some (src, size, msg));
  Net.send net ~src:1 ~dst:2 ~size:100 "ping";
  Sim.run sim;
  Alcotest.(check (option (triple int int string)))
    "delivered with metadata" (Some (1, 100, "ping")) !got;
  Alcotest.(check bool) "latency at least base" true
    Sim_time.(Net.lan_config.base_latency <= Sim.now sim)

let test_net_byte_accounting () =
  let sim = Sim.create () in
  let net = Net.create sim in
  Net.register net 2 (fun ~src:_ ~size:_ _ -> ());
  Net.send net ~src:1 ~dst:2 ~size:100 ();
  Net.send net ~src:1 ~dst:2 ~size:50 ();
  Sim.run sim;
  Alcotest.(check int) "sender bytes" 150 (Net.bytes_sent_by net 1);
  Alcotest.(check int) "receiver bytes" 150 (Net.bytes_received_by net 2);
  Alcotest.(check int) "sender msgs" 2 (Net.messages_sent_by net 1);
  Alcotest.(check int) "total" 150 (Net.total_bytes_sent net)

let test_net_node_down () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let got = ref 0 in
  Net.register net 2 (fun ~src:_ ~size:_ _ -> incr got);
  Net.set_node_down net 2;
  Net.send net ~src:1 ~dst:2 ~size:10 ();
  Sim.run sim;
  Alcotest.(check int) "not delivered" 0 !got;
  Alcotest.(check int) "counted as dropped" 1 (Net.dropped_messages net);
  Alcotest.(check int) "bytes still charged to sender" 10 (Net.bytes_sent_by net 1);
  Net.set_node_up net 2;
  Net.send net ~src:1 ~dst:2 ~size:10 ();
  Sim.run sim;
  Alcotest.(check int) "delivered after recovery" 1 !got

let test_net_cut_link () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let got = ref 0 in
  Net.register net 2 (fun ~src:_ ~size:_ _ -> incr got);
  Net.cut_link net 1 2;
  Net.send net ~src:1 ~dst:2 ~size:10 ();
  Net.send net ~src:2 ~dst:1 ~size:10 ();
  Sim.run sim;
  Alcotest.(check int) "both directions cut" 0 !got;
  Net.heal_link net 2 1;
  Net.send net ~src:1 ~dst:2 ~size:10 ();
  Sim.run sim;
  Alcotest.(check int) "healed" 1 !got

let test_net_broadcast () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let got = ref [] in
  List.iter (fun n -> Net.register net n (fun ~src:_ ~size:_ _ -> got := n :: !got))
    [ 2; 3; 4; 5 ];
  Net.broadcast net ~src:1 ~dsts:[ 2; 3; 4; 5 ] ~size:25 ();
  Sim.run sim;
  Alcotest.(check int) "all received" 4 (List.length !got);
  Alcotest.(check int) "bytes charged per copy" 100 (Net.bytes_sent_by net 1)

let test_net_reset_counters () =
  let sim = Sim.create () in
  let net = Net.create sim in
  Net.register net 2 (fun ~src:_ ~size:_ _ -> ());
  Net.send net ~src:1 ~dst:2 ~size:99 ();
  Sim.run sim;
  Net.reset_counters net;
  Alcotest.(check int) "zeroed" 0 (Net.bytes_sent_by net 1);
  Alcotest.(check int) "total zeroed" 0 (Net.total_bytes_sent net)

let test_net_loopback_fast () =
  let sim = Sim.create () in
  let net = Net.create sim in
  let at = ref Sim_time.zero in
  Net.register net 1 (fun ~src:_ ~size:_ _ -> at := Sim.now sim);
  Net.send net ~src:1 ~dst:1 ~size:0 ();
  Sim.run sim;
  Alcotest.(check bool) "self-send much faster than LAN" true
    Sim_time.(!at < Net.lan_config.base_latency)

(* ------------------------------------------------------------------ *)
(* Cpu                                                                 *)
(* ------------------------------------------------------------------ *)

let test_cpu_serializes_work () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim in
  let finished = ref [] in
  for i = 1 to 5 do
    Cpu.exec cpu ~cost:(Sim_time.ms 10) (fun () ->
        finished := (i, Sim.now sim) :: !finished)
  done;
  Sim.run sim;
  let order = List.rev_map fst !finished in
  Alcotest.(check (list int)) "completion order = submission order"
    [ 1; 2; 3; 4; 5 ] order;
  (* five tasks of ~10ms each on one core take ~50ms total (± jitter) *)
  let total = Sim.now sim in
  Alcotest.(check bool) "work serialized, not parallel" true
    Sim_time.(Sim_time.ms 37 <= total && total <= Sim_time.ms 63)

let test_cpu_backlog () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim in
  Alcotest.(check bool) "idle" true (Cpu.backlog cpu = Sim_time.zero);
  Cpu.exec cpu ~cost:(Sim_time.ms 10) (fun () -> ());
  Alcotest.(check bool) "busy" true Sim_time.(Sim_time.zero < Cpu.backlog cpu);
  Sim.run sim;
  Alcotest.(check bool) "drained" true (Cpu.backlog cpu = Sim_time.zero)

let test_cpu_deterministic_jitter () =
  let run () =
    let sim = Sim.create ~seed:3 () in
    let cpu = Cpu.create sim in
    let at = ref [] in
    for _ = 1 to 10 do
      Cpu.exec cpu ~cost:(Sim_time.us 100) (fun () -> at := Sim.now sim :: !at)
    done;
    Sim.run sim;
    !at
  in
  Alcotest.(check bool) "same seed, same schedule" true (run () = run ())

(* Zero-cost work on an idle processor is not an event: it is the turn's
   deferred work, in FIFO order with the rest of it. *)

let test_cpu_zero_cost_ends_turn () =
  let sim = Sim.create () in
  Sim.set_turn_driven sim;
  let cpu = Cpu.create sim in
  let log = ref [] in
  Cpu.exec cpu ~cost:Sim_time.zero (fun () -> log := Sim.now sim :: !log);
  Alcotest.(check int) "no event queued" 0 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "Sim.run does not run it" 0 (List.length !log);
  Sim.end_turn sim;
  Alcotest.(check (list int)) "end_turn runs it, at once" [ 0 ]
    (List.map Sim_time.to_ns !log);
  Alcotest.(check int) "no event executed" 0 (Sim.executed_events sim)

let test_cpu_zero_cost_fifo_with_defer () =
  let sim = Sim.create () in
  Sim.set_turn_driven sim;
  let cpu = Cpu.create sim in
  let log = ref [] in
  let note x () = log := x :: !log in
  Sim.defer sim (note "a");
  Cpu.exec cpu ~cost:Sim_time.zero (fun () ->
      note "b" ();
      Cpu.exec cpu ~cost:Sim_time.zero (note "d"));
  Sim.defer sim (note "c");
  Sim.end_turn sim;
  Alcotest.(check (list string)) "submission order, nested work same turn"
    [ "a"; "b"; "c"; "d" ] (List.rev !log)

let test_cpu_zero_cost_behind_backlog () =
  let sim = Sim.create () in
  Sim.set_turn_driven sim;
  let cpu = Cpu.create sim in
  let log = ref [] in
  Cpu.exec cpu ~cost:(Sim_time.ms 10) (fun () -> log := ("busy", Sim.now sim) :: !log);
  let busy_until = Cpu.backlog cpu in
  Cpu.exec cpu ~cost:Sim_time.zero (fun () -> log := ("zero", Sim.now sim) :: !log);
  Sim.end_turn sim;
  Alcotest.(check int) "the backlog holds it back" 0 (List.length !log);
  Alcotest.(check int) "both are events" 2 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check (list string)) "in submission order" [ "busy"; "zero" ]
    (List.rev_map fst !log);
  Alcotest.(check bool) "at the end of the backlog" true
    (List.for_all (fun (_, at) -> at = busy_until) !log)

let test_cpu_zero_cost_plain_sim () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim in
  let ran = ref false in
  Cpu.exec cpu ~cost:Sim_time.zero (fun () -> ran := true);
  Alcotest.(check bool) "ran before exec returned" true !ran;
  Alcotest.(check int) "no event queued" 0 (Sim.pending sim)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check bool) "empty" true (Vec.is_empty v);
  List.iter (Vec.push v) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "length" 4 (Vec.length v);
  Alcotest.(check int) "get" 3 (Vec.get v 2);
  Vec.set v 2 30;
  Alcotest.(check int) "set" 30 (Vec.get v 2);
  Alcotest.(check (option int)) "last" (Some 4) (Vec.last_opt v);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 30; 4 ] (Vec.to_list v);
  Alcotest.(check (list int)) "sub" [ 2; 30 ] (Vec.sub v 1 2);
  Vec.truncate v 2;
  Alcotest.(check (list int)) "truncate" [ 1; 2 ] (Vec.to_list v);
  Vec.replace_from v 1 [ 9; 8 ];
  Alcotest.(check (list int)) "replace_from" [ 1; 9; 8 ] (Vec.to_list v);
  Alcotest.check_raises "oob get" (Invalid_argument "Vec.get: out of bounds")
    (fun () -> ignore (Vec.get v 5))

(* a float vector is a flat array: the scrub of freed slots leaves it be *)
let test_vec_floats () =
  let v = Vec.of_list [ 1.5; 2.5; 3.5 ] in
  Vec.truncate v 1;
  Vec.push v 4.5;
  Vec.clear v;
  Vec.push v 5.5;
  Vec.push v 6.5;
  Alcotest.(check (list (float 0.))) "floats intact" [ 5.5; 6.5 ] (Vec.to_list v)

(* Elements dropped by [truncate] or [clear] must be collectable even
   though the vector keeps its capacity. *)
let vec_dropped_collectable ~keep drop =
  let n = 40 in
  let weak = Weak.create n in
  let v = Vec.create () in
  for i = 0 to n - 1 do
    let x = Sys.opaque_identity (ref i) in
    Weak.set weak i (Some x);
    Vec.push v x
  done;
  drop v;
  Gc.full_major ();
  Alcotest.(check int) "kept" keep (Vec.length (Sys.opaque_identity v));
  let live = List.filter (Weak.check weak) (List.init n Fun.id) in
  Alcotest.(check (list int)) "reachable: the kept elements only"
    (List.init keep Fun.id) live

let test_vec_releases_dropped () =
  vec_dropped_collectable ~keep:10 (fun v -> Vec.truncate v 10);
  vec_dropped_collectable ~keep:0 Vec.clear;
  vec_dropped_collectable ~keep:0 (fun v -> Vec.replace_from v 0 [])

let prop_vec_mirrors_list =
  QCheck.Test.make ~name:"vec push/to_list mirrors list" ~count:200
    QCheck.(list int)
    (fun xs ->
      let v = Vec.of_list xs in
      Vec.to_list v = xs
      && Vec.length v = List.length xs
      && Vec.fold_left (fun acc x -> acc + x) 0 v = List.fold_left ( + ) 0 xs)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  Alcotest.(check int) "count" 8 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809 (Stats.Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Summary.max s)

let test_stats_series_percentiles () =
  let s = Stats.Series.create () in
  for i = 1 to 100 do
    Stats.Series.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 50.0 (Stats.Series.median s);
  (* nearest-rank: p99 of 1..100 is exactly 99 *)
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Stats.Series.p99 s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Series.min s);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Stats.Series.max s);
  Alcotest.(check (float 1e-9)) "percentile 0 = min" 1.0
    (Stats.Series.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "percentile 100 = max" 100.0
    (Stats.Series.percentile s 100.0);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Stats.Series.mean s);
  (* small samples: high percentiles must not under-select (the old
     rounding made p99 of a 5-sample series pick the 4th value) *)
  let small = Stats.Series.create () in
  List.iter (Stats.Series.add small) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  Alcotest.(check (float 1e-9)) "p99 of 5 samples is the max" 5.0
    (Stats.Series.percentile small 99.0);
  Alcotest.(check (float 1e-9)) "p50 of 5 samples (nearest rank)" 3.0
    (Stats.Series.percentile small 50.0)

let test_stats_series_interleaved_reads () =
  let s = Stats.Series.create () in
  Stats.Series.add s 10.0;
  ignore (Stats.Series.median s : float);
  Stats.Series.add s 2.0;
  Alcotest.(check (float 1e-9)) "min after re-sort" 2.0 (Stats.Series.min s)

let test_stats_counter_rate () =
  let c = Stats.Counter.create () in
  Stats.Counter.add c 500;
  Alcotest.(check (float 1e-9)) "rate over 2s" 250.0
    (Stats.Counter.rate c ~window:(Sim_time.sec 2));
  Stats.Counter.clear c;
  Alcotest.(check int) "cleared" 0 (Stats.Counter.get c)

let prop_summary_mean_bounded =
  QCheck.Test.make ~name:"summary mean between min and max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range 0.0 1000.0))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min s -. 1e-9 && m <= Stats.Summary.max s +. 1e-9)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "edc_simnet"
    [
      ( "sim_time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "scale" `Quick test_time_scale;
        ] );
      ( "event_queue",
        [
          Alcotest.test_case "ordering" `Quick test_queue_order;
          Alcotest.test_case "fifo ties" `Quick test_queue_fifo_ties;
          Alcotest.test_case "clear" `Quick test_queue_clear;
          qc prop_queue_sorted;
          qc prop_queue_matches_model;
          Alcotest.test_case "clear releases payloads" `Quick test_queue_clear_releases;
          Alcotest.test_case "emptying pop releases payload" `Quick test_queue_pop_releases;
          Alcotest.test_case "remove releases payload" `Quick test_queue_remove_releases;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          qc prop_rng_int_bounds;
          qc prop_rng_float_range;
        ] );
      ( "sim",
        [
          Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "run until" `Quick test_sim_until;
          Alcotest.test_case "nested schedule" `Quick test_sim_nested_schedule;
          Alcotest.test_case "max events" `Quick test_sim_max_events;
          Alcotest.test_case "cancel" `Quick test_sim_cancel;
          Alcotest.test_case "stop" `Quick test_sim_stop;
          Alcotest.test_case "defer on a plain sim runs at once" `Quick
            test_sim_defer_undriven;
          Alcotest.test_case "defer on a turn-driven sim waits for end_turn"
            `Quick test_sim_defer_turn_driven;
        ] );
      ( "trace",
        [ Alcotest.test_case "a long debugf prints one line" `Quick test_trace_long_line ]
      );
      ( "proc",
        [
          Alcotest.test_case "async await" `Quick test_proc_async_await;
          Alcotest.test_case "sleep ordering" `Quick test_proc_sleep_ordering;
          Alcotest.test_case "promise roundtrip" `Quick test_proc_promise_roundtrip;
          Alcotest.test_case "await fulfilled" `Quick test_proc_await_already_fulfilled;
          Alcotest.test_case "try_fulfill" `Quick test_proc_try_fulfill;
          Alcotest.test_case "double fulfill raises" `Quick test_proc_fulfill_twice_raises;
          Alcotest.test_case "timeout expires" `Quick test_proc_await_timeout_expires;
          Alcotest.test_case "timeout beaten" `Quick test_proc_await_timeout_wins;
          Alcotest.test_case "join" `Quick test_proc_join;
          Alcotest.test_case "a fibre's exception escapes Sim.run" `Quick
            test_proc_exception_escapes_run;
        ] );
      ( "net",
        [
          Alcotest.test_case "delivery" `Quick test_net_delivery;
          Alcotest.test_case "byte accounting" `Quick test_net_byte_accounting;
          Alcotest.test_case "node down" `Quick test_net_node_down;
          Alcotest.test_case "cut link" `Quick test_net_cut_link;
          Alcotest.test_case "broadcast" `Quick test_net_broadcast;
          Alcotest.test_case "reset counters" `Quick test_net_reset_counters;
          Alcotest.test_case "loopback fast" `Quick test_net_loopback_fast;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "serializes work" `Quick test_cpu_serializes_work;
          Alcotest.test_case "backlog" `Quick test_cpu_backlog;
          Alcotest.test_case "deterministic jitter" `Quick
            test_cpu_deterministic_jitter;
          Alcotest.test_case "zero cost runs at the end of the turn" `Quick
            test_cpu_zero_cost_ends_turn;
          Alcotest.test_case "zero cost keeps FIFO with deferred work" `Quick
            test_cpu_zero_cost_fifo_with_defer;
          Alcotest.test_case "zero cost behind a backlog is an event" `Quick
            test_cpu_zero_cost_behind_backlog;
          Alcotest.test_case "zero cost on a plain sim runs at once" `Quick
            test_cpu_zero_cost_plain_sim;
        ] );
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "floats" `Quick test_vec_floats;
          Alcotest.test_case "truncate, clear, replace_from release dropped"
            `Quick test_vec_releases_dropped;
          qc prop_vec_mirrors_list;
        ] );
      ( "stats",
        [
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "series percentiles" `Quick test_stats_series_percentiles;
          Alcotest.test_case "series re-sort" `Quick test_stats_series_interleaved_reads;
          Alcotest.test_case "counter rate" `Quick test_stats_counter_rate;
          qc prop_summary_mean_bounded;
        ] );
    ]
