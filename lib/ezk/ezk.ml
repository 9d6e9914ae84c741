(** EXTENSIBLE ZOOKEEPER (EZK, §5.1).

    Wires an extension manager into a ZooKeeper server replica through the
    server's hook points.  The service-independent half — the ["/em"]
    admission policy, registry bookkeeping, recovery reconcile and handler
    parameters — lives in {!Manager}; this module keeps what is ZooKeeper's
    own:

    - the request classification ([op_info]) and the state proxy over the
      leader's speculative view (Figure 2);
    - execution at the leader's *preprocessor* only: each run is one
      speculative transaction, whose recorded changes become one
      multi-transaction with the produced value piggybacked to the
      client's replica (§5.1.2), or roll back on abort;
    - registration and deregistration as multi-transactions that also
      write the [owner] child and the [ack] directory the reconcile reads
      back on recovery (§3.6, §3.8);
    - the hooks: extension-matched *reads* go to the leader while regular
      clients keep the read fast path (§6.2); event extensions run at the
      leader on committed changes, their effects proposed as follow-up
      (quiet) transactions; watch notifications of clients holding a
      matching acked event extension are suppressed (§5.1.2). *)

open Edc_simnet
open Edc_zookeeper
open Edc_core
module P = Edc_zookeeper.Protocol

type t = { server : Server.t; manager : Manager.t }

let manager t = t.manager
let server t = t.server

(* ------------------------------------------------------------------ *)
(* Operation classification                                            *)
(* ------------------------------------------------------------------ *)

(** [(kind, oid, payload)] of a client operation, for subscription
    matching and handler parameters. *)
let op_info = function
  | P.Create { path; data; _ } -> Some (Subscription.K_create, path, data)
  | P.Delete { path; _ } -> Some (Subscription.K_delete, path, "")
  | P.Set_data { path; data; expected_version = None } ->
      Some (Subscription.K_update, path, data)
  | P.Set_data { path; data; expected_version = Some _ } ->
      Some (Subscription.K_cas, path, data)
  | P.Get_data { path; _ } -> Some (Subscription.K_read, path, "")
  | P.Get_children { path; _ } -> Some (Subscription.K_sub_objects, path, "")
  | P.Exists { path; _ } -> Some (Subscription.K_read, path, "")
  | P.Block { path } -> Some (Subscription.K_block, path, "")
  (* Multi is never intercepted by operation extensions: its atomicity
     contract (possibly cross-shard, §6j) would not survive rewriting. *)
  | P.Sync | P.Multi _ -> None

(* ------------------------------------------------------------------ *)
(* The state proxy (Figure 2)                                          *)
(* ------------------------------------------------------------------ *)

(** Builds a sandbox proxy over the leader's speculative view.  All
    mutations are recorded into [ops] (newest first) — the future
    multi-transaction — while reads see both committed state and the
    recorded mutations (read-your-writes within one extension run).
    [blocker] carries the identity of the intercepted request when the
    extension is allowed to park its client ([Svc_block]); event handlers
    pass [None]. *)
let make_proxy t ~session ~blocker ~ops ~has_block =
  let sv = Server.spec t.server in
  let ze = Zerror.to_string in
  let push op = ops := op :: !ops in
  {
    Sandbox.p_read =
      (fun oid ->
        match Spec_view.read sv oid with
        | Ok (data, stat) ->
            Ok (Value.obj ~id:oid ~data ~version:stat.Znode.version ~ctime:stat.Znode.czxid)
        | Error e -> Error (ze e));
    p_exists = (fun oid -> Spec_view.exists sv oid <> None);
    p_sub_objects =
      (fun oid ->
        match Spec_view.children_with_data sv oid with
        | Ok kids ->
            Ok
              (List.map
                 (fun (id, data, (s : Znode.stat)) ->
                   Value.obj ~id ~data ~version:s.Znode.version ~ctime:s.Znode.czxid)
                 kids)
        | Error e -> Error (ze e));
    p_create =
      (fun ~sequential ~oid ~data ->
        match
          Spec_view.create_node sv ~path:oid ~data ~ephemeral_owner:None ~sequential
        with
        | Ok (actual, op) ->
            push op;
            Ok actual
        | Error e -> Error (ze e));
    p_update =
      (fun ~oid ~data ->
        match Spec_view.set_node sv ~path:oid ~data ~expected_version:None with
        | Ok (op, version) ->
            push op;
            Ok version
        | Error e -> Error (ze e));
    p_cas =
      (fun ~oid ~expected ~data ->
        match Spec_view.read sv oid with
        | Error e -> Error (ze e)
        | Ok (current, _) ->
            if not (String.equal current expected) then Ok false
            else (
              match Spec_view.set_node sv ~path:oid ~data ~expected_version:None with
              | Ok (op, _) ->
                  push op;
                  Ok true
              | Error e -> Error (ze e)));
    p_delete =
      (fun oid ->
        match Spec_view.delete_node sv ~path:oid ~version:None with
        | Ok op ->
            push op;
            Ok true
        | Error Zerror.No_node -> Ok false
        | Error e -> Error (ze e));
    p_block =
      (fun oid ->
        match blocker with
        | Some (origin, xid) ->
            has_block := true;
            push (Txn.Tblock { session; origin; xid; path = oid });
            Ok ()
        | None -> Error "block is only available to operation extensions");
    p_monitor =
      (fun oid ->
        if session = 0 then Error "monitor needs an invoking client"
        else
          match
            Spec_view.create_node sv ~path:oid ~data:""
              ~ephemeral_owner:(Some session) ~sequential:false
          with
          | Ok (_, op) ->
              push op;
              Ok ()
          | Error Zerror.Node_exists -> Ok () (* already monitored *)
          | Error e -> Error (ze e));
    p_notify =
      (fun ~client ~oid ->
        push (Txn.Tnotify { session = client; path = oid; kind = P.Node_created });
        Ok ());
    p_clock = (fun () -> Sim_time.to_ns (Sim.now (Server.sim t.server)));
  }

(* ------------------------------------------------------------------ *)
(* Commit or roll back: one speculative transaction per run            *)
(* ------------------------------------------------------------------ *)

(* [spec_txn t f] runs [f] inside one transaction on the leader's
   speculative view: kept when [f] returns [Ok], rolled back otherwise. *)
let spec_txn t f =
  let sv = Server.spec t.server in
  Spec_view.begin_txn sv;
  let r = f sv in
  (match r with Ok _ -> Spec_view.commit_txn sv | Error _ -> Spec_view.rollback_txn sv);
  r

(* ------------------------------------------------------------------ *)
(* Registration and deregistration multi-transactions                  *)
(* ------------------------------------------------------------------ *)

(* EZK's storage layout under "/em/<name>": the code, an [owner] child and
   an [ack] directory holding one child per acknowledging client. *)
let owner_object name = Manager.extension_object name ^ "/owner"
let ack_dir name = Manager.extension_object name ^ "/ack"

let register_txn t ~session ~name ~code =
  let txn sv =
    let ( let* ) = Result.bind in
    let create path data =
      Result.map snd
        (Spec_view.create_node sv ~path ~data ~ephemeral_owner:None ~sequential:false)
    in
    let* ext = create (Manager.extension_object name) code in
    let* owner = create (owner_object name) (string_of_int session) in
    let* ack = create (ack_dir name) "" in
    Ok [ ext; owner; ack ]
  in
  match spec_txn t txn with
  | Ok ops -> Server.Handled (ops, P.Created (Manager.extension_object name))
  | Error e -> Server.Reject e

let deregister_txn t ~name =
  let txn sv =
    let acks =
      match Spec_view.children sv (ack_dir name) with
      | Ok kids -> List.map (fun k -> ack_dir name ^ "/" ^ k) kids
      | Error _ -> []
    in
    let rec delete_all acc = function
      | [] -> Ok (List.rev acc)
      | path :: rest -> (
          match Spec_view.delete_node sv ~path ~version:None with
          | Ok op -> delete_all (op :: acc) rest
          | Error e -> Error e)
    in
    delete_all [] (acks @ [ ack_dir name; owner_object name; Manager.extension_object name ])
  in
  match spec_txn t txn with
  | Ok ops -> Server.Handled (ops, P.Deleted)
  | Error e -> Server.Reject e

(* ------------------------------------------------------------------ *)
(* Operation extensions at the preprocessor                            *)
(* ------------------------------------------------------------------ *)

let run_operation_extension t ~origin ~session ~xid ~entry ~kind ~oid ~data =
  let ops = ref [] in
  let has_block = ref false in
  let proxy = make_proxy t ~session ~blocker:(Some (origin, xid)) ~ops ~has_block in
  let params =
    Manager.params ~oid ~kind:(Subscription.op_kind_to_string kind) ~client:session
      ~data:(Some data)
  in
  match spec_txn t (fun _ -> Manager.run_operation t.manager entry ~proxy ~params) with
  | Ok value ->
      let ops = List.rev !ops in
      if !has_block then Server.Handled_deferred ops
      else Server.Handled (ops, P.Ext (Value.serialize value))
  | Error e -> Server.Reject (Zerror.Extension_error (Sandbox.error_to_string e))

let intercept t ~origin ~session ~xid op =
  match (op, op_info op) with
  | P.Multi { ops }, _
    when List.exists
           (fun w -> Manager.is_manager_object (Edc_replication.Two_pc.wop_path w))
           ops ->
      (* inside a multi, /em writes would bypass the admission policy *)
      Server.Reject (Zerror.Extension_error "/em objects change one request at a time")
  | _, None -> Server.Pass
  | _, Some (kind, oid, data) -> (
      match Manager.admit t.manager ~client:session ~kind ~oid ~data with
      | Manager.Ordinary -> (
          match Manager.match_operation t.manager ~client:session ~kind ~oid with
          | Some entry ->
              run_operation_extension t ~origin ~session ~xid ~entry ~kind ~oid ~data
          | None -> Server.Pass)
      | Manager.Register name -> register_txn t ~session ~name ~code:data
      | Manager.Deregister name -> deregister_txn t ~name
      | Manager.Em_write -> Server.Pass
      | Manager.Reject why -> Server.Reject (Zerror.Extension_error why))

(* ------------------------------------------------------------------ *)
(* Post-apply: manager bookkeeping + event extensions                  *)
(* ------------------------------------------------------------------ *)

let run_event_extensions t ~kind ~oid ~trigger_session =
  let params =
    Manager.params ~oid ~kind:(Subscription.event_kind_to_string kind)
      ~client:trigger_session ~data:None
  in
  List.iter
    (fun (entry : Manager.entry) ->
      let ops = ref [] in
      let has_block = ref false in
      let proxy = make_proxy t ~session:0 ~blocker:None ~ops ~has_block in
      match spec_txn t (fun _ -> Manager.run_event t.manager entry ~proxy ~params) with
      | Ok _ ->
          let ops = List.rev !ops in
          if ops <> [] then Server.propose_internal t.server ~quiet:true ops
      | Error e ->
          Logs.warn (fun m ->
              m "event extension %s failed: %s" entry.Manager.program.Program.name
                (Sandbox.error_to_string e)))
    (Manager.match_events t.manager ~kind ~oid)

let on_applied t server (txn : Txn.t) =
  (* Registry bookkeeping: runs identically on every replica, which is how
     all replicas' extension managers stay consistent. *)
  List.iter
    (fun op ->
      match op with
      | Txn.Tcreate { path; data; _ } ->
          Manager.object_created t.manager ~oid:path ~owner:txn.session ~data
      | Txn.Tdelete { path } -> Manager.object_deleted t.manager ~oid:path
      | Txn.Tset _ | Txn.Tsession_open _ | Txn.Tsession_close _
      | Txn.Tsession_move _ | Txn.Tblock _ | Txn.Tnotify _ | Txn.Terror
      | Txn.Tprep _ | Txn.Tdecide _ | Txn.Tresolve _ ->
          ())
    txn.ops;
  (* Event extensions execute at the leader (passive replication: one
     execution, replicated effects), in commit order, skipping follow-ups
     of event extensions themselves. *)
  if Server.is_leader server && not txn.quiet then
    List.iter
      (fun op ->
        let ev =
          match op with
          | Txn.Tcreate { path; _ } -> Some (Subscription.E_created, path)
          | Txn.Tdelete { path } -> Some (Subscription.E_deleted, path)
          | Txn.Tset { path; _ } -> Some (Subscription.E_changed, path)
          | Txn.Tsession_open _ | Txn.Tsession_close _ | Txn.Tsession_move _
          | Txn.Tblock _ | Txn.Tnotify _ | Txn.Terror | Txn.Tprep _
          | Txn.Tdecide _ | Txn.Tresolve _ ->
              None
        in
        match ev with
        | Some (kind, oid) when not (Manager.is_manager_object oid) ->
            run_event_extensions t ~kind ~oid ~trigger_session:txn.session
        | Some _ | None -> ())
      txn.ops

(* ------------------------------------------------------------------ *)
(* Remaining hooks                                                     *)
(* ------------------------------------------------------------------ *)

let read_needs_leader t ~session op =
  match op_info op with
  | Some (kind, oid, _) -> Manager.intercepts t.manager ~client:session ~kind ~oid
  | None -> false

let watch_event_kind = function
  | P.Node_created -> Subscription.E_created
  | P.Node_deleted -> Subscription.E_deleted
  | P.Node_changed -> Subscription.E_changed
  | P.Children_changed -> Subscription.E_changed

(* ------------------------------------------------------------------ *)
(* Installation and recovery                                           *)
(* ------------------------------------------------------------------ *)

(** [install server] attaches an extension manager to one replica. *)
let rec install server =
  let manager = Manager.create ~mode:Verify.Passive () in
  let t = { server; manager } in
  Server.set_hook_intercept server (fun _srv ~origin ~session ~xid op ->
      intercept t ~origin ~session ~xid op);
  Server.set_hook_read_needs_leader server (fun _srv ~session op ->
      read_needs_leader t ~session op);
  Server.set_hook_on_applied server (fun srv txn -> on_applied t srv txn);
  Server.set_hook_suppress_watch server (fun _srv ~session ~path kind ->
      Manager.client_has_event_match manager ~client:session
        ~kind:(watch_event_kind kind) ~oid:path);
  Server.set_hook_on_snapshot_installed server (fun _srv ->
      (* the registry is derived state: reconcile it against the freshly
         installed tree (§3.8).  Differential, not clear-and-rebuild:
         extensions whose code and owner survived the install keep their
         staged compilation artifacts, so a chunked state transfer does
         not force a recompile storm. *)
      reload t);
  t

(** [reload t] feeds the manager's reconcile from the committed tree
    (§3.8): each child of ["/em"] is an extension and contributes its
    code, the owner recorded in its [owner] child and one object per
    child of its [ack] directory.  Called after a replica restart or
    snapshot install. *)
and reload t =
  let tree = Server.tree t.server in
  let data path =
    match Data_tree.get_data tree path with Ok (d, _) -> Some d | Error _ -> None
  in
  let names =
    match Data_tree.get_children tree Manager.em_root with
    | Ok kids -> kids
    | Error _ -> []
  in
  let objects name =
    match data (Manager.extension_object name) with
    | None -> []
    | Some code ->
        let owner =
          Option.value ~default:0 (Option.bind (data (owner_object name)) int_of_string_opt)
        in
        let acks =
          match Data_tree.get_children tree (ack_dir name) with
          | Ok kids ->
              List.filter_map
                (fun k ->
                  Option.map
                    (fun client -> (Manager.ack_object name ~client, 0, ""))
                    (int_of_string_opt k))
                kids
          | Error _ -> []
        in
        (Manager.extension_object name, owner, code) :: acks
  in
  Manager.reload t.manager (List.concat_map objects names)

(** Bootstrap the manager's object (["/em"]) — run once at the initial
    leader. *)
let bootstrap server =
  let sv = Server.spec server in
  if Spec_view.exists sv Manager.em_root = None then
    match
      Spec_view.create_node sv ~path:Manager.em_root ~data:""
        ~ephemeral_owner:None ~sequential:false
    with
    | Ok (_, op) -> Server.propose_internal server [ op ]
    | Error _ -> ()
