(* Tests for the sharded deployment (§6j): the shard map and routing tier,
   extension-program classification, the cross-shard atomicity checker,
   and end-to-end 2PC through a multi-group simulated deployment. *)

open Edc_simnet
open Edc_zookeeper
open Edc_sharding
module P = Protocol
module Two_pc = Edc_replication.Two_pc
module Subscription = Edc_core.Subscription
module Ast = Edc_core.Ast
module Program = Edc_core.Program
module Atomicity = Edc_checker.Atomicity

let qc = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Shard map                                                           *)
(* ------------------------------------------------------------------ *)

let test_map_basics () =
  let map = Shard_map.v 4 in
  Alcotest.(check string) "first component" "/app"
    (Shard_map.first_component "/app/x/y");
  Alcotest.(check string) "root" "/" (Shard_map.first_component "/");
  let s = Shard_map.route map "/app/x" in
  Alcotest.(check bool) "in range" true (s >= 0 && s < 4);
  Alcotest.(check int) "same subtree, same shard" s
    (Shard_map.route map "/app/deeper/object");
  Alcotest.(check int) "deterministic" s (Shard_map.route map "/app/x")

let test_map_rules () =
  let map =
    Shard_map.v ~rules:[ { Shard_map.prefix = "/pinned"; shard = 3 } ] 4
  in
  Alcotest.(check int) "rule wins" 3 (Shard_map.route map "/pinned/x");
  Alcotest.(check int) "rule matches whole component only" 3
    (Shard_map.route map "/pinned");
  Alcotest.(check bool) "no false prefix match" true
    (Shard_map.route map "/pinnedmore" = Shard_map.route map "/pinnedmore")

(* Satellite property: any subscriber whose pattern can match a path
   routed to shard S is itself resolvable on S — or flagged cross-shard.
   This is what lets the manager keep single-shard extensions local
   without ever missing a matching operation on another shard. *)
let prop_pattern_routing =
  let gen =
    QCheck.Gen.(
      let component = map (fun c -> String.make 1 c) (char_range 'a' 'f') in
      let path =
        map
          (fun parts -> "/" ^ String.concat "/" parts)
          (list_size (int_range 1 4) component)
      in
      let* p = path in
      let* n_shards = int_range 1 8 in
      let* pat =
        oneof
          [
            return (Subscription.Exact p);
            (* an ancestor's Under-pattern also matches p *)
            (let* k = int_range 0 (String.length p - 1) in
             let cut =
               match String.rindex_from_opt p k '/' with
               | Some 0 | None -> "/"
               | Some i -> String.sub p 0 i
             in
             return (Subscription.Under cut));
            (let* k = int_range 1 (String.length p) in
             return (Subscription.Starts_with (String.sub p 0 k)));
            return Subscription.Any_oid;
          ]
      in
      return (p, pat, n_shards))
  in
  QCheck.Test.make ~name:"matching subscribers resolve to the path's shard"
    ~count:500
    (QCheck.make gen)
    (fun (p, pat, n_shards) ->
      let map = Shard_map.v n_shards in
      QCheck.assume (Subscription.oid_matches pat p);
      let s = Shard_map.route map p in
      match Shard_map.shards_of_pattern map pat with
      | `Shard s' -> s' = s
      | `Cross shards -> List.mem s shards)

(* ------------------------------------------------------------------ *)
(* Program classification                                              *)
(* ------------------------------------------------------------------ *)

let map2 =
  Shard_map.v
    ~rules:
      [
        { Shard_map.prefix = "/s0"; shard = 0 };
        { Shard_map.prefix = "/s1"; shard = 1 };
      ]
    2

let sub pattern =
  { Subscription.op_kinds = [ Subscription.K_create ]; op_oid = pattern }

let test_classify_single_shard () =
  (* writes to the matched oid's subtree plus a literal on the same
     shard: runs unchanged on group 0 *)
  let p =
    Program.make "local"
      ~op_subs:[ sub (Subscription.Under "/s0/queue") ]
      ~on_operation:
        [
          Ast.Do
            (Ast.Svc
               ( Ast.Svc_create,
                 [
                   Ast.Binop (Ast.Concat, Ast.Param "oid", Ast.Str_lit "/item");
                   Ast.Str_lit "";
                 ] ));
          Ast.Do (Ast.Svc (Ast.Svc_read, [ Ast.Str_lit "/s0/config" ]));
        ]
      ()
  in
  match Router.classify_program map2 p with
  | `Single 0 -> ()
  | `Single s -> Alcotest.failf "wrong shard %d" s
  | `Cross _ -> Alcotest.fail "flagged cross-shard"

let test_classify_cross_shard () =
  (* subscription on shard 0, literal write on shard 1: flagged *)
  let p =
    Program.make "crossing"
      ~op_subs:[ sub (Subscription.Under "/s0/queue") ]
      ~on_operation:
        [ Ast.Do (Ast.Svc (Ast.Svc_create, [ Ast.Str_lit "/s1/log"; Ast.Str_lit "" ])) ]
      ()
  in
  (match Router.classify_program map2 p with
  | `Cross _ -> ()
  | `Single s -> Alcotest.failf "admitted as single-shard %d" s);
  (* unresolvable target: conservatively cross *)
  let q =
    Program.make "opaque"
      ~op_subs:[ sub (Subscription.Under "/s0/queue") ]
      ~on_operation:
        [ Ast.Do (Ast.Svc (Ast.Svc_delete, [ Ast.Var "x" ])) ]
      ()
  in
  match Router.classify_program map2 q with
  | `Cross _ -> ()
  | `Single _ -> Alcotest.fail "opaque target admitted"

(* ------------------------------------------------------------------ *)
(* Atomicity checker                                                   *)
(* ------------------------------------------------------------------ *)

let test_atomicity_agreement () =
  let audits =
    [
      (0, 0, [ ("t1", true); ("t2", false) ]);
      (0, 1, [ ("t1", true); ("t2", false) ]);
      (1, 0, [ ("t1", true) ]);
    ]
  in
  Alcotest.(check int) "clean history accepted" 0
    (List.length (Atomicity.check ~audits ()));
  Alcotest.(check int) "resolved count" 2 (Atomicity.resolved_count ~audits)

let test_atomicity_divergence () =
  let audits = [ (0, 0, [ ("t1", true) ]); (1, 0, [ ("t1", false) ]) ] in
  match Atomicity.check ~audits () with
  | [ Atomicity.Divergent { txid = "t1"; _ } ] -> ()
  | vs -> Alcotest.failf "expected one divergence, got %d" (List.length vs)

let test_atomicity_residuals () =
  let audits = [ (0, 0, []) ] in
  let vs =
    Atomicity.check ~audits
      ~prepared:[ (1, 0, "t9", 0) ]
      ~locks:[ (1, 0, "/s1/x", "t9") ]
      ()
  in
  Alcotest.(check int) "stuck txn + residual lock" 2 (List.length vs)

let test_atomicity_duplicate () =
  let audits = [ (0, 0, [ ("t1", true); ("t1", true) ]) ] in
  match Atomicity.check ~audits () with
  | [ Atomicity.Duplicate_resolution _ ] -> ()
  | _ -> Alcotest.fail "expected duplicate-resolution violation"

(* ------------------------------------------------------------------ *)
(* End-to-end through a sharded deployment                             *)
(* ------------------------------------------------------------------ *)

let in_shard_cluster ?(seed = 7) ?(n_groups = 2) ?(horizon = Sim_time.sec 60) f
    =
  let sim = Sim.create ~seed () in
  let rules =
    List.init n_groups (fun i ->
        { Shard_map.prefix = Fmt.str "/s%d" i; shard = i })
  in
  let map = Shard_map.v ~rules n_groups in
  let cluster = Shard_cluster.create ~map sim in
  let failure = ref None in
  Proc.spawn sim (fun () -> try f cluster with e -> failure := Some e);
  Sim.run ~until:horizon sim;
  (match !failure with Some e -> raise e | None -> ());
  (* quiesced: the deployment-wide atomicity invariant must hold *)
  let vs =
    Atomicity.check
      ~audits:(Shard_cluster.audits cluster)
      ~prepared:(Shard_cluster.residual_prepared cluster)
      ~locks:(Shard_cluster.residual_locks cluster)
      ()
  in
  if vs <> [] then
    Alcotest.failf "atomicity violations: %a"
      Fmt.(list ~sep:semi Atomicity.pp_violation)
      vs

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %a" what Zerror.pp e

let shard_has cluster shard path =
  Array.for_all
    (fun server -> Data_tree.mem (Server.tree server) path)
    (Shard_cluster.servers cluster shard)

let test_routing_end_to_end () =
  in_shard_cluster (fun cluster ->
      let s = Shard_session.connect cluster in
      ignore (ok "create s0" (Shard_session.create_node s "/s0" "zero"));
      ignore (ok "create s1" (Shard_session.create_node s "/s1" "one"));
      let d0, _ = ok "read s0" (Shard_session.get_data s "/s0") in
      let d1, _ = ok "read s1" (Shard_session.get_data s "/s1") in
      Alcotest.(check string) "routed to shard 0" "zero" d0;
      Alcotest.(check string) "routed to shard 1" "one" d1;
      ok "sync all shards" (Shard_session.sync s);
      Alcotest.(check bool) "/s0 lives only on group 0" true
        (shard_has cluster 0 "/s0" && not (shard_has cluster 1 "/s0"));
      Alcotest.(check bool) "/s1 lives only on group 1" true
        (shard_has cluster 1 "/s1" && not (shard_has cluster 0 "/s1")))

let test_local_multi_atomic () =
  in_shard_cluster (fun cluster ->
      let s = Shard_session.connect cluster in
      ignore (ok "root" (Shard_session.create_node s "/s0" ""));
      ok "single-shard multi"
        (Shard_session.multi s
           [
             Two_pc.Wcreate { path = "/s0/a"; data = "1" };
             Two_pc.Wcreate { path = "/s0/b"; data = "2" };
           ]);
      let d, _ = ok "read" (Shard_session.get_data s "/s0/a") in
      Alcotest.(check string) "applied" "1" d;
      (* all-or-nothing: second op invalid, first must not apply *)
      (match
         Shard_session.multi s
           [
             Two_pc.Wcreate { path = "/s0/c"; data = "3" };
             Two_pc.Wcreate { path = "/s0/missing/deep"; data = "x" };
           ]
       with
      | Ok () -> Alcotest.fail "invalid multi accepted"
      | Error _ -> ());
      match Shard_session.exists s "/s0/c" with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "partial multi applied"
      | Error e -> Alcotest.failf "exists: %a" Zerror.pp e)

let test_cross_shard_commit () =
  in_shard_cluster (fun cluster ->
      let s = Shard_session.connect cluster in
      ignore (ok "root0" (Shard_session.create_node s "/s0" ""));
      ignore (ok "root1" (Shard_session.create_node s "/s1" ""));
      ok "cross-shard multi"
        (Shard_session.multi s
           [
             Two_pc.Wcreate { path = "/s0/x"; data = "left" };
             Two_pc.Wcreate { path = "/s1/y"; data = "right" };
           ]);
      (* let the commit pushes drain, then check both sides *)
      Proc.sleep (Shard_cluster.sim cluster) (Sim_time.sec 2);
      ok "sync" (Shard_session.sync s);
      let d0, _ = ok "left" (Shard_session.get_data s "/s0/x") in
      let d1, _ = ok "right" (Shard_session.get_data s "/s1/y") in
      Alcotest.(check string) "left applied" "left" d0;
      Alcotest.(check string) "right applied" "right" d1;
      (* every replica of both groups resolved the same transaction *)
      let audits = Shard_cluster.audits cluster in
      Alcotest.(check int) "one txn resolved" 1
        (Atomicity.resolved_count ~audits);
      List.iter
        (fun (_, _, outs) ->
          Alcotest.(check int) "each replica resolved once" 1
            (List.length outs);
          Alcotest.(check bool) "as commit" true (snd (List.hd outs)))
        audits)

let test_cross_shard_abort () =
  in_shard_cluster (fun cluster ->
      let s = Shard_session.connect cluster in
      ignore (ok "root0" (Shard_session.create_node s "/s0" ""));
      ignore (ok "root1" (Shard_session.create_node s "/s1" ""));
      (* /s1 side is invalid (missing parent): the whole transaction must
         abort, leaving no trace on /s0 *)
      (match
         Shard_session.multi s
           [
             Two_pc.Wcreate { path = "/s0/x"; data = "left" };
             Two_pc.Wcreate { path = "/s1/missing/deep"; data = "right" };
           ]
       with
      | Ok () -> Alcotest.fail "invalid cross-shard multi accepted"
      | Error _ -> ());
      Proc.sleep (Shard_cluster.sim cluster) (Sim_time.sec 4);
      ok "sync" (Shard_session.sync s);
      (match Shard_session.exists s "/s0/x" with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "aborted txn left /s0/x behind"
      | Error e -> Alcotest.failf "exists: %a" Zerror.pp e);
      Alcotest.(check (list (pair string string))) "no residual locks" []
        (List.map
           (fun (_, _, path, txid) -> (path, txid))
           (Shard_cluster.residual_locks cluster)))

let test_concurrent_cross_shard () =
  in_shard_cluster ~n_groups:4 ~horizon:(Sim_time.sec 200) (fun cluster ->
      let sim = Shard_cluster.sim cluster in
      let s = Shard_session.connect cluster in
      for i = 0 to 3 do
        ignore (ok "root" (Shard_session.create_node s (Fmt.str "/s%d" i) ""))
      done;
      (* several sessions race cross-shard multis over the same groups;
         contending transactions abort cleanly ([Txn_conflict]/[Locked],
         the 2PC lock footprints collide on the shard roots) and are
         retried with per-worker backoff *)
      let done_count = ref 0 in
      let failures = ref [] in
      for w = 0 to 5 do
        Proc.spawn sim (fun () ->
            let rng = Rng.split (Sim.rng sim) in
            Proc.sleep sim (Sim_time.ms (37 * w));
            let sw = Shard_session.connect cluster in
            for i = 0 to 4 do
              let a = (w + i) mod 4 and b = (w + i + 1) mod 4 in
              let ops =
                [
                  Two_pc.Wcreate
                    { path = Fmt.str "/s%d/w%d-%d" a w i; data = "" };
                  Two_pc.Wcreate
                    { path = Fmt.str "/s%d/w%d-%d'" b w i; data = "" };
                ]
              in
              let rec attempt tries =
                match Shard_session.multi sw ops with
                | Ok () -> incr done_count
                | Error (Zerror.Txn_conflict | Zerror.Locked)
                  when tries < 60 ->
                    (* randomized backoff: conflicting rounds otherwise
                       stay phase-locked in the deterministic simulation *)
                    Proc.sleep sim
                      (Sim_time.ms (20 + Rng.int rng (40 * (tries + 1))));
                    attempt (tries + 1)
                | Error e -> failures := e :: !failures
              in
              attempt 0
            done)
      done;
      Proc.sleep sim (Sim_time.sec 90);
      (* with clean aborts and retries everything eventually commits *)
      if !failures <> [] then
        Alcotest.failf "hard failures: %a"
          Fmt.(list ~sep:comma Zerror.pp)
          !failures;
      Alcotest.(check int) "all committed" 30 !done_count)

let () =
  Alcotest.run "edc_sharding"
    [
      ( "shard_map",
        [
          Alcotest.test_case "basics" `Quick test_map_basics;
          Alcotest.test_case "placement rules" `Quick test_map_rules;
          qc prop_pattern_routing;
        ] );
      ( "classification",
        [
          Alcotest.test_case "single-shard program admitted" `Quick
            test_classify_single_shard;
          Alcotest.test_case "cross-shard program flagged" `Quick
            test_classify_cross_shard;
        ] );
      ( "atomicity checker",
        [
          Alcotest.test_case "agreement accepted" `Quick
            test_atomicity_agreement;
          Alcotest.test_case "divergence caught" `Quick
            test_atomicity_divergence;
          Alcotest.test_case "residual state caught" `Quick
            test_atomicity_residuals;
          Alcotest.test_case "duplicate resolution caught" `Quick
            test_atomicity_duplicate;
        ] );
      ( "deployment",
        [
          Alcotest.test_case "routing end to end" `Quick
            test_routing_end_to_end;
          Alcotest.test_case "single-shard multi is atomic" `Quick
            test_local_multi_atomic;
          Alcotest.test_case "cross-shard commit" `Quick
            test_cross_shard_commit;
          Alcotest.test_case "cross-shard abort" `Quick test_cross_shard_abort;
          Alcotest.test_case "concurrent cross-shard traffic" `Quick
            test_concurrent_cross_shard;
        ] );
    ]
