(* Integration tests for EXTENSIBLE ZOOKEEPER (EZK) and EXTENSIBLE
   DEPSPACE (EDS): registration through the unchanged service API,
   sandboxed server-side execution, multi-transaction atomicity, blocking
   calls, event extensions, suppression, and fault tolerance of the
   extension manager state (§3–§5). *)

open Edc_simnet
open Edc_core
module Zk = Edc_zookeeper
module Ezk = Edc_ezk.Ezk
module Ezk_cluster = Edc_ezk.Ezk_cluster
module Ezk_client = Edc_ezk.Ezk_client
module Eds = Edc_eds.Eds
module Eds_cluster = Edc_eds.Eds_cluster
module Eds_client = Edc_eds.Eds_client
module Ds = Edc_depspace

(* ------------------------------------------------------------------ *)
(* Shared extension programs (the DSL versions of the paper's figures)  *)
(* ------------------------------------------------------------------ *)

let counter_program =
  let open Ast in
  Program.make "ctr-increment"
    ~op_subs:
      [ { Subscription.op_kinds = [ Subscription.K_read ];
          op_oid = Subscription.Exact "/ctr-increment" } ]
    ~on_operation:
      [
        Let ("c", Call ("int_of_str", [ Field (Svc (Svc_read, [ Str_lit "/ctr" ]), "data") ]));
        Do (Svc (Svc_update, [ Str_lit "/ctr"; Call ("str_of_int", [ Binop (Add, Var "c", Int_lit 1) ]) ]));
        Return (Binop (Add, Var "c", Int_lit 1));
      ]
    ()

(* updates two objects atomically, then a variant that aborts mid-way *)
let twin_program ~abort =
  let open Ast in
  let body =
    [
      Do (Svc (Svc_update, [ Str_lit "/a"; Str_lit "new" ]));
    ]
    @ (if abort then [ Abort "deliberate" ] else [])
    @ [
        Do (Svc (Svc_update, [ Str_lit "/b"; Str_lit "new" ]));
        Return (Str_lit "done");
      ]
  in
  Program.make (if abort then "twin-abort" else "twin")
    ~op_subs:
      [ { Subscription.op_kinds = [ Subscription.K_read ];
          op_oid = Subscription.Exact (if abort then "/twin-abort" else "/twin") } ]
    ~on_operation:body ()

let gate_program =
  let open Ast in
  Program.make "gate"
    ~op_subs:
      [ { Subscription.op_kinds = [ Subscription.K_block ];
          op_oid = Subscription.Under "/gate" } ]
    ~on_operation:[ Do (Svc (Svc_block, [ Param "oid" ])) ]
    ()

let nondet_program =
  let open Ast in
  Program.make "timey"
    ~op_subs:
      [ { Subscription.op_kinds = [ Subscription.K_read ];
          op_oid = Subscription.Exact "/now" } ]
    ~on_operation:[ Return (Call ("clock", [])) ]
    ()

(* event extension: whenever something under /watched is deleted, append a
   tombstone object *)
let tombstone_program =
  let open Ast in
  Program.make "tombstone"
    ~event_subs:
      [ { Subscription.ev_kinds = [ Subscription.E_deleted ];
          ev_oid = Subscription.Under "/watched" } ]
    ~on_event:
      [ Do (Svc (Svc_create_sequential, [ Str_lit "/tombs/t"; Param "oid" ])) ]
    ()

(* ------------------------------------------------------------------ *)
(* EZK harness                                                         *)
(* ------------------------------------------------------------------ *)

let in_ezk ?(horizon = Sim_time.sec 120) ?(seed = 9) f =
  let sim = Sim.create ~seed () in
  let cluster = Ezk_cluster.create sim in
  let failure = ref None in
  Proc.spawn sim (fun () -> try f cluster with e -> failure := Some e);
  Sim.run ~until:horizon sim;
  match !failure with Some e -> raise e | None -> ()

let zok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Zk.Zerror.pp e

let vok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* ------------------------------------------------------------------ *)
(* EZK tests                                                           *)
(* ------------------------------------------------------------------ *)

let test_ezk_counter_extension () =
  in_ezk (fun cluster ->
      let c = Ezk_cluster.connected_client cluster () in
      ignore (zok "init ctr" (Zk.Client.create_node c "/ctr" "0"));
      ignore (zok "register" (Ezk_client.register c counter_program));
      for expected = 1 to 20 do
        match vok "increment" (Ezk_client.ext_read c "/ctr-increment") with
        | Value.Int n -> Alcotest.(check int) "dense values" expected n
        | v -> Alcotest.failf "unexpected value %a" Value.pp v
      done;
      let data, _ = zok "read ctr" (Zk.Client.get_data c "/ctr") in
      Alcotest.(check string) "stored count" "20" data)

let test_ezk_extension_needs_ack () =
  in_ezk (fun cluster ->
      let owner = Ezk_cluster.connected_client cluster () in
      let stranger = Ezk_cluster.connected_client cluster () in
      ignore (zok "init" (Zk.Client.create_node owner "/ctr" "0"));
      ignore (zok "register" (Ezk_client.register owner counter_program));
      Proc.sleep (Ezk_cluster.sim cluster) (Sim_time.ms 100);
      (* without ack, the stranger's read is a plain read of a nonexistent
         node *)
      (match Zk.Client.get_data stranger "/ctr-increment" with
      | Error Zk.Zerror.No_node -> ()
      | Ok _ -> Alcotest.fail "extension must not trigger for unacked client"
      | Error e -> Alcotest.failf "unexpected: %a" Zk.Zerror.pp e);
      (* after the one-time acknowledgment it triggers *)
      ignore (zok "ack" (Ezk_client.acknowledge stranger "ctr-increment"));
      match vok "increment" (Ezk_client.ext_read stranger "/ctr-increment") with
      | Value.Int 1 -> ()
      | v -> Alcotest.failf "unexpected %a" Value.pp v)

let test_ezk_registration_rejects_garbage () =
  in_ezk (fun cluster ->
      let c = Ezk_cluster.connected_client cluster () in
      match Zk.Client.create_node c "/em/evil" "(not a program" with
      | Error (Zk.Zerror.Extension_error _) -> ()
      | Ok _ -> Alcotest.fail "garbage registration accepted"
      | Error e -> Alcotest.failf "unexpected: %a" Zk.Zerror.pp e)

let test_ezk_multi_txn_atomicity () =
  in_ezk (fun cluster ->
      let c = Ezk_cluster.connected_client cluster () in
      ignore (zok "a" (Zk.Client.create_node c "/a" "old"));
      ignore (zok "b" (Zk.Client.create_node c "/b" "old"));
      ignore (zok "register ok" (Ezk_client.register c (twin_program ~abort:false)));
      ignore (zok "register abort" (Ezk_client.register c (twin_program ~abort:true)));
      (* the aborting extension must leave no trace *)
      (match Ezk_client.ext_read c "/twin-abort" with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "abort must fail the call, got %a" Value.pp v);
      let a, _ = zok "read a" (Zk.Client.get_data c "/a") in
      let b, _ = zok "read b" (Zk.Client.get_data c "/b") in
      Alcotest.(check (pair string string)) "aborted: nothing applied"
        ("old", "old") (a, b);
      (* the successful one applies both, atomically *)
      ignore (vok "twin" (Ezk_client.ext_read c "/twin"));
      let a, _ = zok "read a2" (Zk.Client.get_data c "/a") in
      let b, _ = zok "read b2" (Zk.Client.get_data c "/b") in
      Alcotest.(check (pair string string)) "both applied" ("new", "new") (a, b))

let test_ezk_block_extension () =
  in_ezk (fun cluster ->
      let sim = Ezk_cluster.sim cluster in
      let waiter = Ezk_cluster.connected_client cluster () in
      let creator = Ezk_cluster.connected_client cluster () in
      ignore (zok "parent" (Zk.Client.create_node creator "/gate" ""));
      ignore (zok "register" (Ezk_client.register waiter gate_program));
      let blocked =
        Proc.async sim (fun () -> zok "block" (Ezk_client.block waiter "/gate/go"))
      in
      Proc.sleep sim (Sim_time.ms 300);
      Alcotest.(check bool) "still parked" false (Proc.is_fulfilled blocked);
      ignore (zok "open gate" (Zk.Client.create_node creator "/gate/go" "payload"));
      let data = Proc.await blocked in
      Alcotest.(check string) "unblocked with object data" "payload" data)

let test_ezk_event_extension () =
  in_ezk (fun cluster ->
      let c = Ezk_cluster.connected_client cluster () in
      ignore (zok "parent" (Zk.Client.create_node c "/watched" ""));
      ignore (zok "tombs" (Zk.Client.create_node c "/tombs" ""));
      ignore (zok "victim" (Zk.Client.create_node c "/watched/x" ""));
      ignore (zok "register" (Ezk_client.register c tombstone_program));
      ignore (zok "delete" (Zk.Client.delete c "/watched/x"));
      Proc.sleep (Ezk_cluster.sim cluster) (Sim_time.ms 500);
      let tombs = zok "ls tombs" (Zk.Client.get_children c "/tombs") in
      Alcotest.(check int) "one tombstone" 1 (List.length tombs);
      let data, _ =
        zok "tomb data" (Zk.Client.get_data c ("/tombs/" ^ List.hd tombs))
      in
      Alcotest.(check string) "records the deleted oid" "/watched/x" data)

let test_ezk_watch_suppression () =
  in_ezk (fun cluster ->
      let sim = Ezk_cluster.sim cluster in
      let subscriber = Ezk_cluster.connected_client cluster () in
      let plain = Ezk_cluster.connected_client cluster () in
      let writer = Ezk_cluster.connected_client cluster () in
      ignore (zok "parent" (Zk.Client.create_node writer "/watched" ""));
      ignore (zok "tombs" (Zk.Client.create_node writer "/tombs" ""));
      ignore (zok "victim" (Zk.Client.create_node writer "/watched/y" ""));
      ignore (zok "register" (Ezk_client.register subscriber tombstone_program));
      Proc.sleep sim (Sim_time.ms 100);
      (* both clients set a watch on the node *)
      let sub_event = Zk.Client.watch_waiter subscriber "/watched/y" in
      let plain_event = Zk.Client.watch_waiter plain "/watched/y" in
      ignore (zok "w1" (Zk.Client.get_data subscriber ~watch:true "/watched/y"));
      ignore (zok "w2" (Zk.Client.get_data plain ~watch:true "/watched/y"));
      ignore (zok "delete" (Zk.Client.delete writer "/watched/y"));
      Proc.sleep sim (Sim_time.sec 1);
      Alcotest.(check bool) "plain client notified" true (Proc.is_fulfilled plain_event);
      Alcotest.(check bool) "subscriber's notification suppressed (§5.1.2)"
        false (Proc.is_fulfilled sub_event))

let test_ezk_deregistration () =
  in_ezk (fun cluster ->
      let c = Ezk_cluster.connected_client cluster () in
      ignore (zok "init" (Zk.Client.create_node c "/ctr" "0"));
      ignore (zok "register" (Ezk_client.register c counter_program));
      ignore (vok "works" (Ezk_client.ext_read c "/ctr-increment"));
      ignore (zok "deregister" (Ezk_client.deregister c "ctr-increment"));
      (* back to a plain read of a nonexistent node *)
      match Zk.Client.get_data c "/ctr-increment" with
      | Error Zk.Zerror.No_node -> ()
      | Ok _ -> Alcotest.fail "extension still active after deregistration"
      | Error e -> Alcotest.failf "unexpected %a" Zk.Zerror.pp e)

let test_ezk_only_owner_deregisters () =
  in_ezk (fun cluster ->
      let owner = Ezk_cluster.connected_client cluster () in
      let other = Ezk_cluster.connected_client cluster () in
      ignore (zok "init" (Zk.Client.create_node owner "/ctr" "0"));
      ignore (zok "register" (Ezk_client.register owner counter_program));
      Proc.sleep (Ezk_cluster.sim cluster) (Sim_time.ms 100);
      match Ezk_client.deregister other "ctr-increment" with
      | Error (Zk.Zerror.Extension_error _) -> ()
      | Ok _ -> Alcotest.fail "foreign deregistration accepted"
      | Error e -> Alcotest.failf "unexpected %a" Zk.Zerror.pp e)

let test_ezk_only_acker_unacks () =
  (* an ack is revoked only by the client that made it: a third session's
     delete of it, alone or inside a multi, is refused and the acking
     client keeps triggering the extension *)
  in_ezk (fun cluster ->
      let owner = Ezk_cluster.connected_client cluster () in
      let acker = Ezk_cluster.connected_client cluster () in
      let other = Ezk_cluster.connected_client cluster () in
      ignore (zok "init" (Zk.Client.create_node owner "/ctr" "0"));
      ignore (zok "register" (Ezk_client.register owner counter_program));
      ignore (zok "ack" (Ezk_client.acknowledge acker "ctr-increment"));
      let ack = Manager.ack_object "ctr-increment" ~client:(Zk.Client.session acker) in
      (match Zk.Client.delete other ack with
      | Error (Zk.Zerror.Extension_error _) -> ()
      | Ok () -> Alcotest.fail "another session revoked the ack"
      | Error e -> Alcotest.failf "unexpected %a" Zk.Zerror.pp e);
      (match
         Zk.Client.multi other [ Edc_replication.Two_pc.Wdelete { path = ack } ]
       with
      | Error (Zk.Zerror.Extension_error _) -> ()
      | Ok () -> Alcotest.fail "a multi revoked another session's ack"
      | Error e -> Alcotest.failf "unexpected %a" Zk.Zerror.pp e);
      match vok "acker still triggers" (Ezk_client.ext_read acker "/ctr-increment") with
      | Value.Int 1 -> ()
      | v -> Alcotest.failf "unexpected %a" Value.pp v)

let test_ezk_extension_survives_leader_failover () =
  in_ezk (fun cluster ->
      let sim = Ezk_cluster.sim cluster in
      (* client attached to replica 1 so it survives the crash of 0 *)
      let c = Ezk_cluster.connected_client ~replica:1 cluster () in
      ignore (zok "init" (Zk.Client.create_node c "/ctr" "0"));
      ignore (zok "register" (Ezk_client.register c counter_program));
      ignore (vok "pre-crash" (Ezk_client.ext_read c "/ctr-increment"));
      Ezk_cluster.crash_server cluster 0;
      Proc.sleep sim (Sim_time.sec 3);
      let rec retry n =
        match Ezk_client.ext_read c "/ctr-increment" with
        | Ok (Value.Int v) -> v
        | Ok v -> Alcotest.failf "unexpected %a" Value.pp v
        | Error _ when n > 0 ->
            Proc.sleep sim (Sim_time.ms 500);
            retry (n - 1)
        | Error e -> Alcotest.failf "extension dead after failover: %s" e
      in
      let v = retry 20 in
      Alcotest.(check int) "counter continued from committed state" 2 v)

let test_ezk_restart_reloads_extensions () =
  in_ezk (fun cluster ->
      let sim = Ezk_cluster.sim cluster in
      let c = Ezk_cluster.connected_client ~replica:0 cluster () in
      ignore (zok "init" (Zk.Client.create_node c "/ctr" "0"));
      ignore (zok "register" (Ezk_client.register c counter_program));
      ignore (vok "works" (Ezk_client.ext_read c "/ctr-increment"));
      (* crash and restart replica 2; its manager must be rebuilt from the
         replicated data objects (§3.8) *)
      Ezk_cluster.crash_server cluster 2;
      Proc.sleep sim (Sim_time.sec 1);
      Ezk_cluster.restart_server cluster 2;
      Proc.sleep sim (Sim_time.sec 2);
      let mgr = Ezk.manager (Ezk_cluster.ezk cluster 2) in
      Alcotest.(check int) "reloaded from data objects" 1
        (Edc_core.Manager.extension_count mgr);
      match Edc_core.Manager.find mgr "ctr-increment" with
      | Some entry ->
          Alcotest.(check bool) "owner restored" true
            (entry.Edc_core.Manager.owner = Zk.Client.session c)
      | None -> Alcotest.fail "extension missing after reload")

let test_ezk_custom_notification () =
  (* §5.1.2: "an event extension may still choose to send a notification
     of its own" — the notifier extension suppresses the original watch
     event and pushes a custom one at a different path *)
  in_ezk (fun cluster ->
      let sim = Ezk_cluster.sim cluster in
      let subscriber = Ezk_cluster.connected_client cluster () in
      let writer = Ezk_cluster.connected_client cluster () in
      ignore (zok "parent" (Zk.Client.create_node writer "/watched" ""));
      ignore (zok "victim" (Zk.Client.create_node writer "/watched/z" ""));
      let notifier =
        let open Ast in
        Program.make "notifier"
          ~event_subs:
            [ { Subscription.ev_kinds = [ Subscription.E_deleted ];
                ev_oid = Subscription.Under "/watched" } ]
          ~on_event:
            [ Do (Svc (Svc_notify, [ Param "client"; Str_lit "/custom-channel" ])) ]
          ()
      in
      ignore (zok "register" (Ezk_client.register subscriber notifier));
      Proc.sleep sim (Sim_time.ms 100);
      let original = Zk.Client.watch_waiter subscriber "/watched/z" in
      let custom = Zk.Client.watch_waiter subscriber "/custom-channel" in
      ignore (zok "watch" (Zk.Client.get_data subscriber ~watch:true "/watched/z"));
      (* the deleter is the subscriber itself so the notify targets its
         session (the event handler's client parameter) *)
      ignore (zok "delete" (Zk.Client.delete subscriber "/watched/z"));
      Proc.sleep sim (Sim_time.sec 1);
      Alcotest.(check bool) "original suppressed" false (Proc.is_fulfilled original);
      Alcotest.(check bool) "custom notification delivered" true
        (Proc.is_fulfilled custom))

(* ------------------------------------------------------------------ *)
(* EDS harness                                                         *)
(* ------------------------------------------------------------------ *)

let in_eds ?(horizon = Sim_time.sec 120) ?(seed = 13) f =
  let sim = Sim.create ~seed () in
  let cluster = Eds_cluster.create sim in
  let failure = ref None in
  Proc.spawn sim (fun () -> try f cluster with e -> failure := Some e);
  Sim.run ~until:horizon sim;
  match !failure with Some e -> raise e | None -> ()

let obj_out c ~oid ~data =
  Ds.Ds_client.out c (Ds.Objects.tuple ~oid ~data ~version:0 ~ctime:0)

let obj_read c oid =
  match Ds.Ds_client.rdp c (Ds.Objects.template oid) with
  | Ok (Some t) -> (
      match Ds.Objects.decode t with
      | Some v -> Ok (Some v.Ds.Objects.data)
      | None -> Error "not an object")
  | Ok None -> Ok None
  | Error e -> Error e

(* ------------------------------------------------------------------ *)
(* EDS tests                                                           *)
(* ------------------------------------------------------------------ *)

let test_eds_counter_extension () =
  in_eds (fun cluster ->
      let c = Eds_cluster.client cluster () in
      vok "init" (obj_out c ~oid:"/ctr" ~data:"0");
      vok "register" (Eds_client.register c counter_program);
      for expected = 1 to 10 do
        match vok "increment" (Eds_client.ext_read c "/ctr-increment") with
        | Value.Int n -> Alcotest.(check int) "dense" expected n
        | v -> Alcotest.failf "unexpected %a" Value.pp v
      done;
      (match vok "read" (obj_read c "/ctr") with
      | Some "10" -> ()
      | Some d -> Alcotest.failf "counter is %s" d
      | None -> Alcotest.fail "counter object lost");
      (* all correct replicas hold the same space *)
      let contents i =
        Ds.Space.contents (Ds.Ds_server.space (Eds_cluster.servers cluster).(i))
      in
      Alcotest.(check bool) "replicas identical" true
        (contents 0 = contents 1 && contents 1 = contents 2 && contents 2 = contents 3))

let test_eds_rejects_nondeterminism () =
  in_eds (fun cluster ->
      let c = Eds_cluster.client cluster () in
      match Eds_client.register c nondet_program with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "active replication must reject clock()")

let test_eds_abort_rolls_back () =
  in_eds (fun cluster ->
      let c = Eds_cluster.client cluster () in
      vok "a" (obj_out c ~oid:"/a" ~data:"old");
      vok "b" (obj_out c ~oid:"/b" ~data:"old");
      vok "register" (Eds_client.register c (twin_program ~abort:true));
      (match Eds_client.ext_read c "/twin-abort" with
      | Error _ -> ()
      | Ok v -> Alcotest.failf "abort must fail, got %a" Value.pp v);
      (match vok "a after" (obj_read c "/a") with
      | Some "old" -> ()
      | other -> Alcotest.failf "rollback failed: %s" (Option.value ~default:"gone" other));
      match vok "b after" (obj_read c "/b") with
      | Some "old" -> ()
      | other -> Alcotest.failf "rollback failed: %s" (Option.value ~default:"gone" other))

let test_eds_block_extension () =
  in_eds (fun cluster ->
      let sim = Eds_cluster.sim cluster in
      let waiter = Eds_cluster.client cluster () in
      let creator = Eds_cluster.client cluster () in
      vok "register" (Eds_client.register waiter gate_program);
      let blocked =
        Proc.async sim (fun () -> vok "block" (Eds_client.block waiter "/gate/go"))
      in
      Proc.sleep sim (Sim_time.ms 500);
      Alcotest.(check bool) "parked" false (Proc.is_fulfilled blocked);
      vok "open" (obj_out creator ~oid:"/gate/go" ~data:"payload");
      let data = Proc.await blocked in
      Alcotest.(check string) "unblocked with data" "payload" data)

let test_eds_deletion_event_on_expiry () =
  in_eds (fun cluster ->
      let sim = Eds_cluster.sim cluster in
      let c = Eds_cluster.client cluster () in
      let observer = Eds_cluster.client cluster () in
      (* successor extension: when a /watched object dies, record it *)
      let successor =
        let open Ast in
        Program.make "successor"
          ~event_subs:
            [ { Subscription.ev_kinds = [ Subscription.E_deleted ];
                ev_oid = Subscription.Under "/watched" } ]
          ~on_event:[ Do (Svc (Svc_create, [ Str_lit "/successor"; Param "oid" ])) ]
          ()
      in
      vok "register" (Eds_client.register c successor);
      (* a lease object that we never renew *)
      (match
         Ds.Ds_client.out c ~lease:(Sim_time.sec 2)
           (Ds.Objects.tuple ~oid:"/watched/7" ~data:"" ~version:0 ~ctime:0)
       with
      | Ok () -> ()
      | Error e -> Alcotest.failf "lease out: %s" e);
      (* drive time (and thus expiry) with ordered traffic *)
      for _ = 1 to 10 do
        Proc.sleep sim (Sim_time.sec 1);
        ignore (Ds.Ds_client.noop observer)
      done;
      match vok "successor" (obj_read observer "/successor") with
      | Some "/watched/7" -> ()
      | Some d -> Alcotest.failf "wrong successor data %s" d
      | None -> Alcotest.fail "deletion event did not fire on lease expiry")

let test_eds_reload () =
  in_eds (fun cluster ->
      let c = Eds_cluster.client cluster () in
      vok "init" (obj_out c ~oid:"/ctr" ~data:"0");
      vok "register" (Eds_client.register c counter_program);
      ignore (vok "works" (Eds_client.ext_read c "/ctr-increment"));
      Proc.sleep (Eds_cluster.sim cluster) (Sim_time.ms 500);
      (* restart replica 1: a fresh manager, rebuilt by scanning the
         replicated space *)
      Eds_cluster.restart_server cluster 1;
      let mgr i = Eds.manager (Eds_cluster.eds cluster i) in
      Alcotest.(check int) "rebuilt from tuples" 1 (Manager.extension_count (mgr 1));
      let owner i =
        match Manager.find (mgr i) "ctr-increment" with
        | Some e -> e.Manager.owner
        | None -> Alcotest.failf "replica %d lost the extension" i
      in
      Alcotest.(check int) "registering client" (Ds.Ds_client.addr c) (owner 0);
      Alcotest.(check int) "owner survives the reload" (owner 0) (owner 1);
      (* every replica, the restarted one included, lets the owner
         deregister, so the spaces stay identical *)
      vok "owner deregisters" (Eds_client.deregister c "ctr-increment");
      Proc.sleep (Eds_cluster.sim cluster) (Sim_time.ms 500);
      for i = 0 to 3 do
        Alcotest.(check int) (Printf.sprintf "replica %d deregistered" i) 0
          (Manager.extension_count (mgr i))
      done;
      let contents i =
        Ds.Space.contents (Ds.Ds_server.space (Eds_cluster.servers cluster).(i))
      in
      Alcotest.(check bool) "replicas identical" true
        (List.for_all (fun i -> contents i = contents 0) [ 1; 2; 3 ]))

let test_eds_unblock_event_can_reblock () =
  (* §5.2.2: "an extension may decide to block the operation again" — the
     unblock of a parked rd is DepSpace's event; this event extension
     re-parks the caller until the object's content is "open" *)
  in_eds (fun cluster ->
      let sim = Eds_cluster.sim cluster in
      let owner = Eds_cluster.client cluster () in
      let waiter = Eds_cluster.client cluster () in
      let gatekeeper =
        let open Ast in
        Program.make "gatekeeper"
          ~event_subs:
            [ { Subscription.ev_kinds = [ Subscription.E_unblocked ];
                ev_oid = Subscription.Under "/gate2" } ]
          ~on_event:
            [
              If
                ( Binop (Eq, Param "data", Str_lit "open"),
                  [ Return (Str_lit "proceed") ],
                  [ Return (Str_lit "reblock") ] );
            ]
          ()
      in
      vok "register" (Eds_client.register owner gatekeeper);
      let blocked =
        Proc.async sim (fun () ->
            match Ds.Ds_client.rd waiter (Ds.Objects.template "/gate2/door") with
            | Ok t -> (
                match Ds.Objects.decode t with
                | Some v -> v.Ds.Objects.data
                | None -> "?")
            | Error e -> Alcotest.failf "rd: %s" e)
      in
      Proc.sleep sim (Sim_time.ms 300);
      (* creating the object CLOSED unblocks the rd, but the event
         extension re-parks it *)
      vok "closed" (obj_out owner ~oid:"/gate2/door" ~data:"closed");
      Proc.sleep sim (Sim_time.sec 1);
      Alcotest.(check bool) "re-blocked while closed" false
        (Proc.is_fulfilled blocked);
      (* replacing the content with "open" re-fires the unblock *)
      (match
         Ds.Ds_client.replace owner
           (Ds.Objects.template "/gate2/door")
           (Ds.Objects.tuple ~oid:"/gate2/door" ~data:"open" ~version:1 ~ctime:0)
       with
      | Ok true -> ()
      | Ok false -> Alcotest.fail "replace missed"
      | Error e -> Alcotest.failf "replace: %s" e);
      let data = Proc.await blocked in
      Alcotest.(check string) "released once open" "open" data)

let test_eds_byzantine_replica_cannot_corrupt_extension_results () =
  in_eds (fun cluster ->
      Ds.Ds_server.set_byzantine (Eds_cluster.servers cluster).(3);
      let c = Eds_cluster.client cluster () in
      vok "init" (obj_out c ~oid:"/ctr" ~data:"0");
      vok "register despite liar" (Eds_client.register c counter_program);
      for expected = 1 to 5 do
        match vok "inc" (Eds_client.ext_read c "/ctr-increment") with
        | Value.Int n -> Alcotest.(check int) "vote masks the liar" expected n
        | v -> Alcotest.failf "unexpected %a" Value.pp v
      done)

let test_eds_deregistration_end_to_end () =
  in_eds (fun cluster ->
      let c = Eds_cluster.client cluster () in
      vok "init" (obj_out c ~oid:"/ctr" ~data:"0");
      vok "register" (Eds_client.register c counter_program);
      ignore (vok "works" (Eds_client.ext_read c "/ctr-increment"));
      vok "deregister" (Eds_client.deregister c "ctr-increment");
      (* back to a plain read of a nonexistent object *)
      match Ds.Ds_client.rdp c (Ds.Objects.template "/ctr-increment") with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "extension object should be gone"
      | Error e -> Alcotest.failf "rdp: %s" e)

let test_eds_failing_event_extension_is_isolated () =
  (* an event extension that aborts must not disturb the triggering
     operation or the space *)
  in_eds (fun cluster ->
      let c = Eds_cluster.client cluster () in
      let bomb =
        let open Ast in
        Program.make "bomb"
          ~event_subs:
            [ { Subscription.ev_kinds = [ Subscription.E_deleted ];
                ev_oid = Subscription.Under "/watched" } ]
          ~on_event:[ Abort "boom" ]
          ()
      in
      vok "register" (Eds_client.register c bomb);
      vok "create" (obj_out c ~oid:"/watched/x" ~data:"v");
      (* the delete triggers the bomb; the delete itself must succeed *)
      (match Ds.Ds_client.inp c (Ds.Objects.template "/watched/x") with
      | Ok (Some _) -> ()
      | Ok None -> Alcotest.fail "delete lost"
      | Error e -> Alcotest.failf "inp: %s" e);
      (* and the service is still healthy *)
      vok "service alive" (obj_out c ~oid:"/after" ~data:"ok"))

let test_eds_em_region_protected () =
  in_eds (fun cluster ->
      let c = Eds_cluster.client cluster () in
      vok "register" (Eds_client.register c counter_program);
      (* overwriting extension code through replace must be refused *)
      match
        Ds.Ds_client.replace c
          (Ds.Objects.template "/em/ctr-increment")
          (Ds.Objects.tuple ~oid:"/em/ctr-increment" ~data:"evil" ~version:1 ~ctime:0)
      with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "extension objects must be immutable")

let test_ezk_em_objects_immutable () =
  in_ezk (fun cluster ->
      let c = Ezk_cluster.connected_client cluster () in
      ignore (zok "register" (Ezk_client.register c counter_program));
      (* overwriting extension code must be refused *)
      match Zk.Client.set_data c "/em/ctr-increment" "evil" with
      | Error (Zk.Zerror.Extension_error _) -> ()
      | Ok _ -> Alcotest.fail "extension code must be immutable"
      | Error e -> Alcotest.failf "unexpected %a" Zk.Zerror.pp e)

let test_ezk_last_registration_wins_end_to_end () =
  (* §3.3: "If a request matches multiple extensions, only the last
     registered will be executed" — through the full stack *)
  in_ezk (fun cluster ->
      let c = Ezk_cluster.connected_client cluster () in
      let mk name ret =
        let open Ast in
        Program.make name
          ~op_subs:[ { Subscription.op_kinds = [ Subscription.K_read ];
                       op_oid = Subscription.Exact "/overlap" } ]
          ~on_operation:[ Return (Int_lit ret) ] ()
      in
      ignore (zok "reg first" (Ezk_client.register c (mk "first" 1)));
      ignore (zok "reg second" (Ezk_client.register c (mk "second" 2)));
      (match vok "invoke" (Ezk_client.ext_read c "/overlap") with
      | Value.Int 2 -> ()
      | v -> Alcotest.failf "expected the later extension, got %a" Value.pp v);
      (* deregistering the winner falls back to the earlier one *)
      ignore (zok "dereg" (Ezk_client.deregister c "second"));
      match vok "invoke again" (Ezk_client.ext_read c "/overlap") with
      | Value.Int 1 -> ()
      | v -> Alcotest.failf "expected the earlier extension, got %a" Value.pp v)

let test_ezk_extensions_survive_snapshot_recovery () =
  (* a replica recovering through snapshot state transfer (not log replay)
     must rebuild its extension manager from the installed tree *)
  let sim = Sim.create ~seed:45 () in
  let config = { Zk.Server.default_config with snapshot_interval = 20 } in
  let cluster = Ezk_cluster.create ~server_config:config sim in
  let failure = ref None in
  Proc.spawn sim (fun () ->
      try
        let c = Ezk_cluster.connected_client ~replica:0 cluster () in
        ignore (zok "ctr" (Zk.Client.create_node c "/ctr" "0"));
        ignore (zok "register" (Ezk_client.register c counter_program));
        Ezk_cluster.crash_server cluster 2;
        (* push the log far past the snapshot horizon *)
        for i = 1 to 80 do
          ignore (zok "mk" (Zk.Client.create_node c (Printf.sprintf "/junk%03d" i) ""))
        done;
        Ezk_cluster.restart_server cluster 2;
        Proc.sleep sim (Sim_time.sec 3);
        let mgr = Ezk.manager (Ezk_cluster.ezk cluster 2) in
        Alcotest.(check int) "manager rebuilt from snapshot" 1
          (Edc_core.Manager.extension_count mgr);
        (* the recovered replica can serve extension reads end to end *)
        let c2 = Ezk_cluster.connected_client ~replica:2 cluster () in
        ignore (zok "ack" (Ezk_client.acknowledge c2 "ctr-increment"));
        match vok "increment via recovered replica" (Ezk_client.ext_read c2 "/ctr-increment") with
        | Value.Int 1 -> ()
        | v -> Alcotest.failf "unexpected %a" Value.pp v
      with e -> failure := Some e);
  Sim.run ~until:(Sim_time.sec 60) sim;
  (match !failure with Some e -> raise e | None -> ())

(* ------------------------------------------------------------------ *)
(* Differential: the same extension workload on both systems           *)
(* ------------------------------------------------------------------ *)

let test_differential_counter () =
  (* the same program, registered through two very different services,
     must produce the same sequence of values (the portability claim of
     §6.1: recipes are expressed against the abstract API) *)
  let run_ezk () =
    let acc = ref [] in
    in_ezk (fun cluster ->
        let c = Ezk_cluster.connected_client cluster () in
        ignore (zok "init" (Zk.Client.create_node c "/ctr" "0"));
        ignore (zok "register" (Ezk_client.register c counter_program));
        for _ = 1 to 12 do
          match vok "inc" (Ezk_client.ext_read c "/ctr-increment") with
          | Value.Int n -> acc := n :: !acc
          | _ -> Alcotest.fail "unexpected value"
        done);
    List.rev !acc
  in
  let run_eds () =
    let acc = ref [] in
    in_eds (fun cluster ->
        let c = Eds_cluster.client cluster () in
        vok "init" (obj_out c ~oid:"/ctr" ~data:"0");
        vok "register" (Eds_client.register c counter_program);
        for _ = 1 to 12 do
          match vok "inc" (Eds_client.ext_read c "/ctr-increment") with
          | Value.Int n -> acc := n :: !acc
          | _ -> Alcotest.fail "unexpected value"
        done);
    List.rev !acc
  in
  Alcotest.(check (list int)) "identical results on both systems"
    (run_ezk ()) (run_eds ())

(* The /em admission policy is service-independent (§3.6): one table of
   requests, issued by the same actors against EZK and EDS, must get the
   same accept/reject outcome on both, and the expected one. *)

type em_request =
  | Em_create of string * string
  | Em_delete of string
  | Em_update of string * string

type em_actor = Owner | Acker | Other

let good_program =
  let open Ast in
  Program.make "good"
    ~op_subs:
      [ { Subscription.op_kinds = [ Subscription.K_read ];
          op_oid = Subscription.Exact "/good" } ]
    ~on_operation:[ Return (Int_lit 1) ]
    ()

(* (row, actor, request given each actor's client id, accepted?), issued in
   order after [Owner] registered ctr-increment *)
let em_table =
  let ext = Manager.extension_object and code = Codec.serialize in
  let ctr = ext "ctr-increment" in
  let ack ?(name = "ctr-increment") a id = Manager.ack_object name ~client:(id a) in
  [
    ("register: good code", Owner, (fun _ -> Em_create (ext "good", code good_program)), true);
    ("register: bad code", Owner, (fun _ -> Em_create (ext "bad", "(not a program")), false);
    ("register: name mismatch", Owner, (fun _ -> Em_create (ext "x", code good_program)), false);
    ("register: duplicate", Acker, (fun _ -> Em_create (ctr, code counter_program)), false);
    ("ack: own", Acker, (fun id -> Em_create (ack Acker id, "")), true);
    ("ack: other's", Other, (fun id -> Em_create (ack Owner id, "")), false);
    ("ack: unknown extension", Other, (fun id -> Em_create (ack ~name:"nope" Other id, "")), false);
    ("update: extension object", Owner, (fun _ -> Em_update (ctr, "x")), false);
    ("update: ack object", Acker, (fun id -> Em_update (ack Acker id, "x")), false);
    ("update: root object", Owner, (fun _ -> Em_update (Manager.em_root, "x")), false);
    ("update: index object", Owner, (fun _ -> Em_update (Manager.em_index, "x")), false);
    ("update: other /em object", Owner, (fun _ -> Em_update (ctr ^ "/owner", "0")), false);
    ("un-ack: other's", Other, (fun id -> Em_delete (ack Acker id)), false);
    ("un-ack: own", Acker, (fun id -> Em_delete (ack Acker id)), true);
    ("deregister: non-owner", Other, (fun _ -> Em_delete ctr), false);
    ("deregister: unknown name", Owner, (fun _ -> Em_delete (ext "nope")), false);
    ("deregister: owner", Owner, (fun _ -> Em_delete (ext "good")), true);
    ("create /em", Owner, (fun _ -> Em_create (Manager.em_root, "")), false);
    ("create /em/index", Owner, (fun _ -> Em_create (Manager.em_index, "")), false);
    ("delete /em", Owner, (fun _ -> Em_delete Manager.em_root), false);
    ("delete /em/index", Owner, (fun _ -> Em_delete Manager.em_index), false);
  ]

(* runs the table; returns each row's outcome and the surviving registry *)
let run_em_table ~client ~id ~register ~perform ~manager =
  let clients = List.map (fun a -> (a, client ())) [ Owner; Acker; Other ] in
  let c a = List.assoc a clients in
  let id a = id (c a) in
  register (c Owner);
  let outcomes =
    List.map (fun (row, actor, req, _) -> (row, perform (c actor) (req id))) em_table
  in
  (outcomes, Manager.registered_names (manager ()))

let test_differential_em_admission () =
  let ezk = ref ([], []) and eds = ref ([], []) in
  in_ezk (fun cluster ->
      ezk :=
        run_em_table
          ~client:(fun () -> Ezk_cluster.connected_client cluster ())
          ~id:Zk.Client.session
          ~register:(fun c -> ignore (zok "register" (Ezk_client.register c counter_program)))
          ~perform:(fun c -> function
            | Em_create (path, data) -> Result.is_ok (Zk.Client.create_node c path data)
            | Em_delete path -> Result.is_ok (Zk.Client.delete c path)
            | Em_update (path, data) -> Result.is_ok (Zk.Client.set_data c path data))
          ~manager:(fun () -> Ezk.manager (Ezk_cluster.ezk cluster 0)));
  in_eds (fun cluster ->
      eds :=
        run_em_table
          ~client:(fun () -> Eds_cluster.client cluster ())
          ~id:Ds.Ds_client.addr
          ~register:(fun c -> vok "register" (Eds_client.register c counter_program))
          ~perform:(fun c -> function
            | Em_create (oid, data) -> Result.is_ok (obj_out c ~oid ~data)
            | Em_delete oid ->
                Ds.Ds_client.inp c (Ds.Objects.template oid) |> Result.map Option.is_some
                = Ok true
            | Em_update (oid, data) ->
                Ds.Ds_client.replace c (Ds.Objects.template oid)
                  (Ds.Objects.tuple ~oid ~data ~version:1 ~ctime:0)
                = Ok true)
          ~manager:(fun () -> Eds.manager (Eds_cluster.eds cluster 0)));
  let expected = List.map (fun (row, _, _, ok) -> (row, ok)) em_table in
  let outcomes = Alcotest.(list (pair string bool)) in
  Alcotest.check outcomes "EZK outcomes" expected (fst !ezk);
  Alcotest.check outcomes "EDS outcomes" (fst !ezk) (fst !eds);
  Alcotest.(check (list string)) "same registry on both" (snd !ezk) (snd !eds);
  Alcotest.(check (list string)) "registry" [ "ctr-increment" ] (snd !ezk)

let () =
  Alcotest.run "edc_ezk_eds"
    [
      ( "ezk",
        [
          Alcotest.test_case "counter extension" `Quick test_ezk_counter_extension;
          Alcotest.test_case "ack required" `Quick test_ezk_extension_needs_ack;
          Alcotest.test_case "garbage registration rejected" `Quick
            test_ezk_registration_rejects_garbage;
          Alcotest.test_case "multi-txn atomicity" `Quick test_ezk_multi_txn_atomicity;
          Alcotest.test_case "block extension" `Quick test_ezk_block_extension;
          Alcotest.test_case "event extension" `Quick test_ezk_event_extension;
          Alcotest.test_case "watch suppression" `Quick test_ezk_watch_suppression;
          Alcotest.test_case "custom notification (§5.1.2)" `Quick
            test_ezk_custom_notification;
          Alcotest.test_case "deregistration" `Quick test_ezk_deregistration;
          Alcotest.test_case "owner-only deregistration" `Quick
            test_ezk_only_owner_deregisters;
          Alcotest.test_case "only the acker un-acks" `Quick test_ezk_only_acker_unacks;
          Alcotest.test_case "survives leader failover" `Quick
            test_ezk_extension_survives_leader_failover;
          Alcotest.test_case "restart reloads (§3.8)" `Quick
            test_ezk_restart_reloads_extensions;
          Alcotest.test_case "snapshot recovery reloads" `Quick
            test_ezk_extensions_survive_snapshot_recovery;
          Alcotest.test_case "/em objects immutable" `Quick
            test_ezk_em_objects_immutable;
          Alcotest.test_case "last registration wins (§3.3)" `Quick
            test_ezk_last_registration_wins_end_to_end;
        ] );
      ( "eds",
        [
          Alcotest.test_case "counter extension" `Quick test_eds_counter_extension;
          Alcotest.test_case "nondeterminism rejected" `Quick
            test_eds_rejects_nondeterminism;
          Alcotest.test_case "abort rolls back" `Quick test_eds_abort_rolls_back;
          Alcotest.test_case "block extension" `Quick test_eds_block_extension;
          Alcotest.test_case "deletion event on expiry" `Quick
            test_eds_deletion_event_on_expiry;
          Alcotest.test_case "reload (§3.8)" `Quick test_eds_reload;
          Alcotest.test_case "/em region protected" `Quick test_eds_em_region_protected;
          Alcotest.test_case "unblock event re-blocks (§5.2.2)" `Quick
            test_eds_unblock_event_can_reblock;
          Alcotest.test_case "byzantine masked on extension results" `Quick
            test_eds_byzantine_replica_cannot_corrupt_extension_results;
          Alcotest.test_case "deregistration" `Quick test_eds_deregistration_end_to_end;
          Alcotest.test_case "failing event extension isolated" `Quick
            test_eds_failing_event_extension_is_isolated;
        ] );
      ( "differential",
        [ Alcotest.test_case "counter identical on EZK and EDS" `Quick
            test_differential_counter;
          Alcotest.test_case "/em admission identical on EZK and EDS" `Quick
            test_differential_em_admission ] );
    ]
