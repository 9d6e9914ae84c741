(** ZooKeeper server replica.

    Mirrors the architecture in the paper's Figure 3: a chain of request
    processors — preprocessor (validation, txn minting, and the EZK
    extension-manager hook), proposer (the Zab substrate), and final
    processor (apply to the tree, fire watches, route the reply from the
    replica the client is connected to).  Reads are served locally from
    committed state (ZooKeeper's read fast path, which §6.2 of the paper
    shows is unaffected by extensions); updates are forwarded to the
    leader.

    Extensibility is provided through {!hooks}: EZK installs an intercept
    at the preprocessor stage, a replica-local predicate that redirects
    extension-matched reads to the leader, a post-apply callback for
    extension-manager bookkeeping and event extensions, and a watch
    suppression predicate.  A plain ZooKeeper deployment leaves the hooks
    at their defaults and pays nothing for them. *)

open Edc_simnet
open Edc_replication
open Edc_wire
module P = Protocol

(* ------------------------------------------------------------------ *)
(* Wire format shared by the whole deployment                          *)
(* ------------------------------------------------------------------ *)

type wire =
  | Client_msg of P.client_to_server
  | Server_msg of P.server_to_client
  | Zab_msg of Txn.t Zab.msg
  | Forward of { origin : int; session : int; xid : int; op : P.op }
  | Forward_connect of { origin : int; client_addr : int }
  | Forward_reconnect of { origin : int; session : int }
  | Forward_close of { session : int }
  | Touch of { session : int }

let wire_size = function
  | Client_msg m -> P.client_msg_size m
  | Server_msg m -> P.server_msg_size m
  | Zab_msg m -> Zab.msg_size ~payload_size:Txn.size m
  | Forward { op; _ } -> 24 + P.op_size op
  | Forward_connect _ -> 24
  | Forward_reconnect _ -> 24
  | Forward_close _ -> 16
  | Touch _ -> 16

(* ------------------------------------------------------------------ *)
(* Hooks (extension points used by EZK)                                *)
(* ------------------------------------------------------------------ *)

type hook_action =
  | Pass  (** process the request normally *)
  | Handled of Txn.op list * P.result
      (** replace normal processing: multi-transaction + piggybacked
          result (the paper's operation extensions) *)
  | Handled_deferred of Txn.op list
      (** like [Handled], but no immediate reply: the multi-transaction
          contains a [Tblock] and the client is answered when the awaited
          object appears *)
  | Reject of Zerror.t

type session_info = { client_addr : int; mutable owner_replica : int }

let session_timeout = Sim_time.sec 10
let expiry_check_interval = Sim_time.ms 500

(** 2PC coordinator: re-send [Prepare] to silent participants (§6j) *)
let txn_retry_interval = Sim_time.ms 400

(** 2PC coordinator: presumed-abort deadline for an open round *)
let txn_coord_timeout = Sim_time.ms 2500

(** 2PC participant: in-doubt [Status] inquiry cadence *)
let txn_status_interval = Sim_time.ms 1200

type config = {
  snapshot_interval : int;
      (** take a snapshot and compact the replicated log every N applied
          transactions; [0] disables (ZooKeeper's snapCount) *)
  preprocess_cost : Sim_time.t;  (** CPU cost of validating one update *)
  read_cost : Sim_time.t;  (** CPU cost of serving one local read *)
  linearizable_reads : bool;
      (** route every read through the leader: served locally there under
          a valid lease ({!Zab.can_serve_lease_read}), otherwise ordered
          through the commit path as a quiet no-op barrier (§6i).  The
          default [false] keeps ZooKeeper's sequentially-consistent local
          read fast path. *)
}

let default_config =
  {
    snapshot_interval = 1000;
    (* calibrated so a saturated leader sustains ~28k updates/s, matching
       the throughput envelope of the paper's 4-core testbed (§6, §7.1) *)
    preprocess_cost = Sim_time.us 35;
    read_cost = Sim_time.us 10;
    linearizable_reads = false;
  }

(** One open coordinator round (§6j).  Leader-volatile by design: the
    only durable coordinator state is the decision record in this shard's
    log — presumed abort covers everything a dead leader forgets. *)
type coord_round = {
  cr_participants : int list;
  cr_slices : (int * Two_pc.wop list) list;  (** per-shard op slices *)
  mutable cr_acks : int list;  (** shards that voted yes *)
  mutable cr_done : bool;  (** decision reached (either way) *)
  cr_origin : int;
  cr_session : int;
  cr_xid : int;
  cr_started : Sim_time.t;
}

type t = {
  sim : Sim.t;
  net : wire Transport.t;
  id : int;
  replica_ids : int list;
  config : config;
  tree : Data_tree.t;
  mutable zab : Txn.t Zab.t option;  (** set right after creation *)
  watch : Watch_manager.t;
  sessions : (int, session_info) Hashtbl.t;  (** replicated via txns *)
  blocked : (string, (int * int * int) list ref) Hashtbl.t;
      (** path -> (session, origin, xid): replicated blocked-call table *)
  spec : Spec_view.t;
  (* leader-volatile state *)
  mutable leader_ready : bool;
  mutable ready_barrier : int;
  mutable deferred : (int * int * int * P.op) list;  (** queued while not ready *)
  last_touch : (int, Sim_time.t) Hashtbl.t;
  mutable session_counter : int;
  mutable outstanding : int;  (** proposed but not yet applied txns *)
  mutable generation : int;
  cpu : Cpu.t;
  (* hooks *)
  mutable hook_intercept : t -> origin:int -> session:int -> xid:int -> P.op -> hook_action;
  mutable hook_read_needs_leader : t -> session:int -> P.op -> bool;
  mutable hook_on_applied : t -> Txn.t -> unit;
  mutable hook_suppress_watch : t -> session:int -> path:string -> P.watch_kind -> bool;
  mutable hook_on_snapshot_installed : t -> unit;
  (* statistics *)
  mutable reads_served : int;
  mutable lease_reads : int;  (** leader reads served under a valid lease *)
  mutable quorum_reads : int;  (** leader reads ordered through the commit path *)
  mutable txns_applied : int;
  mutable proposals : int;
  mutable wire_encodes : int;
      (** distinct message values handed to the transport — one
          serialization each on an encoding transport, however wide the
          fan-out ([send_many] counts once) *)
  mutable wire_sends : int;  (** per-destination deliveries *)
  (* snapshots *)
  mutable snap_image : Data_tree.image option;
      (** COW handle pinning the latest capture; released when superseded *)
  mutable txns_since_snapshot : int;
  mutable snap_captures : int;
  mutable snap_serializations : int;  (** captures actually marshaled *)
  mutable snap_skipped : int;  (** interval fired with nothing to compact *)
  mutable snap_installs : int;
  (* sharding / cross-shard commit (§6j) *)
  mutable shard_id : int;  (** this replica's shard; [0] when unsharded *)
  mutable shard_route : (string -> int) option;  (** path -> owning shard *)
  mutable shard_send : (int -> Two_pc.frame -> unit) option;
      (** leader-to-leader inter-shard plane, installed by the deployment *)
  locks : (string, string) Hashtbl.t;  (** path -> txid; replicated *)
  prepared : (string, int * Two_pc.wop list) Hashtbl.t;
      (** txid -> (coordinator shard, parked writes); replicated *)
  probing : (string, unit) Hashtbl.t;
      (** txids with a live in-doubt probe chain; replica-local, keeps
          [arm_status_probe] from stacking timers per txid *)
  decisions : (string, bool) Hashtbl.t;  (** txid -> committed; replicated *)
  mutable txn_audit : (string * bool) list;
      (** resolve outcomes, newest first; replicated — the atomicity
          checker's evidence *)
  coord_rounds : (string, coord_round) Hashtbl.t;  (** leader-volatile *)
  spec_locks : (string, string) Hashtbl.t;
      (** locks of our own proposed-but-unapplied [Tprep]s; leader-volatile *)
  proposed_preps : (string, unit) Hashtbl.t;  (** dedup per leader reign *)
  proposed_resolves : (string, unit) Hashtbl.t;
  mutable txn_counter : int;
  mutable txns_coordinated : int;
  mutable txns_committed : int;  (** rounds this replica decided commit *)
  mutable txns_aborted : int;  (** rounds this replica decided abort *)
}

let tree t = t.tree
let zab t = match t.zab with Some z -> z | None -> invalid_arg "server not wired"
let is_leader t = Zab.is_leader (zab t)
let id t = t.id
let sim t = t.sim
let spec t = t.spec
let reads_served t = t.reads_served
let lease_reads t = t.lease_reads
let quorum_reads t = t.quorum_reads
let txns_applied t = t.txns_applied
let proposals t = t.proposals
let wire_encodes t = t.wire_encodes
let wire_sends t = t.wire_sends
let snapshot_captures t = t.snap_captures
let snapshot_serializations t = t.snap_serializations
let snapshots_skipped t = t.snap_skipped
let snapshot_installs t = t.snap_installs
let session_exists t session = Hashtbl.mem t.sessions session
let shard_id t = t.shard_id
let txn_audit t = List.rev t.txn_audit
let decided t txid = Hashtbl.find_opt t.decisions txid

let prepared_txns t =
  Hashtbl.fold (fun txid (coord, _) acc -> (txid, coord) :: acc) t.prepared []
  |> List.sort compare

let locked_paths t =
  Hashtbl.fold (fun path txid acc -> (path, txid) :: acc) t.locks []
  |> List.sort compare

let txns_coordinated t = t.txns_coordinated
let txns_committed t = t.txns_committed
let txns_aborted t = t.txns_aborted

let session_owned_here t session =
  match Hashtbl.find_opt t.sessions session with
  | Some info -> info.owner_replica = t.id
  | None -> false

let client_addr_of t session =
  Option.map (fun i -> i.client_addr) (Hashtbl.find_opt t.sessions session)

let count_wire t ~fanout =
  t.wire_encodes <- t.wire_encodes + 1;
  t.wire_sends <- t.wire_sends + fanout

let send_wire t ~dst msg =
  count_wire t ~fanout:1;
  Transport.send t.net ~src:t.id ~dst ~size:(wire_size msg) msg

(* One encode per broadcast: the fan-out shares a single message value,
   so an encoding transport (TCP) frames it once and corks the same bytes
   to every destination. *)
let send_wire_many t ~dsts msg =
  count_wire t ~fanout:(List.length dsts);
  Transport.send_many t.net ~src:t.id ~dsts ~size:(wire_size msg) msg

let send_to_client t session msg =
  match client_addr_of t session with
  | Some addr -> send_wire t ~dst:addr (Server_msg msg)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Final processor: apply committed transactions                       *)
(* ------------------------------------------------------------------ *)

let fire_watches t path kind =
  let sessions = Watch_manager.fire t.watch Watch_manager.Data path in
  List.iter
    (fun session ->
      if
        session_owned_here t session
        && not (t.hook_suppress_watch t ~session ~path kind)
      then send_to_client t session (P.Watch_event { path; kind }))
    sessions

let fire_child_watches t path =
  let sessions = Watch_manager.fire t.watch Watch_manager.Children path in
  List.iter
    (fun session ->
      if
        session_owned_here t session
        && not (t.hook_suppress_watch t ~session ~path P.Children_changed)
      then send_to_client t session (P.Watch_event { path; kind = P.Children_changed }))
    sessions

let unblock_waiters t path =
  match Hashtbl.find_opt t.blocked path with
  | None -> ()
  | Some waiters ->
      Hashtbl.remove t.blocked path;
      let data =
        match Data_tree.get_data t.tree path with Ok (d, _) -> d | Error _ -> ""
      in
      List.iter
        (fun (session, origin, xid) ->
          if origin = t.id && session_owned_here t session then
            send_to_client t session
              (P.Reply { xid; result = P.Unblocked data }))
        (List.rev !waiters)

let drop_blocked_session t session =
  let doomed = ref [] in
  Hashtbl.iter
    (fun path waiters ->
      waiters := List.filter (fun (s, _, _) -> s <> session) !waiters;
      if !waiters = [] then doomed := path :: !doomed)
    t.blocked;
  List.iter (Hashtbl.remove t.blocked) !doomed

(* --- cross-shard commit, apply side (§6j) ---

   Everything below runs identically on every replica of the shard (it is
   driven by applied log records), except the explicitly leader-gated
   sends: acks, outcome pushes, and client replies come from whoever is
   leader when the record applies — which is exactly how a new leader
   resumes a dead one's protocol duties. *)

let shard_send_frame t dst frame =
  match t.shard_send with Some f -> f dst frame | None -> ()

(** Lock footprint of a prepared write: the path and its parent (a
    parked create/delete also changes the parent's child set, so sibling
    transactions and parent deletions must conflict). *)
let lock_paths ops =
  List.concat_map
    (fun op ->
      let path = Two_pc.wop_path op in
      match Zpath.parent path with
      | Some parent -> [ path; parent ]
      | None -> [ path ])
    ops
  |> List.sort_uniq String.compare

(** Deterministic prepare-time validation against the committed tree —
    every replica reaches the same vote from the same log prefix. *)
let wop_valid t op =
  match op with
  | Two_pc.Wcreate { path; _ } -> (
      (not (Data_tree.mem t.tree path))
      &&
      match Zpath.parent path with
      | None -> false
      | Some parent -> (
          match Data_tree.exists t.tree parent with
          | Some stat -> stat.Znode.ephemeral_owner = None
          | None -> false))
  | Two_pc.Wset { path; _ } -> Data_tree.mem t.tree path
  | Two_pc.Wdelete { path } -> (
      match Data_tree.get_children t.tree path with
      | Ok [] -> true
      | Ok _ | Error _ -> false)

let locks_free t ~txid ops =
  List.for_all
    (fun path ->
      match Hashtbl.find_opt t.locks path with
      | Some owner -> String.equal owner txid
      | None -> true)
    (lock_paths ops)

let release_txn_locks t txid ops =
  List.iter
    (fun path ->
      match Hashtbl.find_opt t.locks path with
      | Some owner when String.equal owner txid -> Hashtbl.remove t.locks path
      | _ -> ())
    (lock_paths ops);
  let mine =
    Hashtbl.fold
      (fun path owner acc -> if String.equal owner txid then path :: acc else acc)
      t.spec_locks []
  in
  List.iter (Hashtbl.remove t.spec_locks) mine

let audited t txid = List.mem_assoc txid t.txn_audit

(** In-doubt participant loop: while [txid] stays prepared, the current
    leader of this shard periodically asks the coordinator shard for the
    outcome.  The chain is armed on every replica when the [Tprep]
    applies (and on snapshot install, for snapshots carrying prepared
    txns) but only the leader of the moment speaks — so the inquiry
    survives any single replica's death.  At most one chain runs per
    txid: [t.probing] marks live chains so re-arming (e.g. a snapshot
    install while the txn is still in doubt) is a no-op instead of a
    second timer multiplying Status traffic. *)
let arm_status_probe t txid =
  if not (Hashtbl.mem t.probing txid) then begin
    Hashtbl.replace t.probing txid ();
    let rec probe () =
      match Hashtbl.find_opt t.prepared txid with
      | None -> Hashtbl.remove t.probing txid
      | Some (coord, _) ->
          if is_leader t then
            shard_send_frame t coord
              (Two_pc.Status { txid; from_shard = t.shard_id });
          Sim.schedule t.sim ~after:txn_status_interval probe
    in
    Sim.schedule t.sim ~after:txn_status_interval probe
  end

let rec apply_op t op =
  match op with
  | Txn.Tcreate { path; data; ephemeral_owner } ->
      Data_tree.apply_create t.tree ~path ~data ~ephemeral_owner;
      fire_watches t path P.Node_created;
      (match Zpath.parent path with
      | Some parent -> fire_child_watches t parent
      | None -> ());
      unblock_waiters t path
  | Txn.Tdelete { path } ->
      Data_tree.apply_delete t.tree ~path;
      fire_watches t path P.Node_deleted;
      (match Zpath.parent path with
      | Some parent -> fire_child_watches t parent
      | None -> ())
  | Txn.Tset { path; data; version } ->
      Data_tree.apply_set t.tree ~path ~data ~version;
      fire_watches t path P.Node_changed
  | Txn.Tsession_open { session; client_addr; owner_replica } ->
      Hashtbl.replace t.sessions session { client_addr; owner_replica };
      if is_leader t then Hashtbl.replace t.last_touch session (Sim.now t.sim);
      if owner_replica = t.id then
        send_to_client t session (P.Connect_ok { session })
  | Txn.Tsession_move { session; owner_replica } -> (
      match Hashtbl.find_opt t.sessions session with
      | Some info ->
          info.owner_replica <- owner_replica;
          if owner_replica = t.id then
            send_to_client t session (P.Connect_ok { session })
      | None -> ())
  | Txn.Tsession_close { session } ->
      Hashtbl.remove t.sessions session;
      Hashtbl.remove t.last_touch session;
      Watch_manager.drop_session t.watch session;
      drop_blocked_session t session
  | Txn.Tblock { session; origin; xid; path } -> (
      (* If the node exists by now it can only be because the same txn
         created it earlier in the multi-txn; unblock immediately. *)
      match Data_tree.get_data t.tree path with
      | Ok (data, _) ->
          if origin = t.id && session_owned_here t session then
            send_to_client t session (P.Reply { xid; result = P.Unblocked data })
      | Error _ ->
          let waiters =
            match Hashtbl.find_opt t.blocked path with
            | Some w -> w
            | None ->
                let w = ref [] in
                Hashtbl.replace t.blocked path w;
                w
          in
          waiters := (session, origin, xid) :: !waiters)
  | Txn.Tnotify { session; path; kind } ->
      if session_owned_here t session then
        send_to_client t session (P.Watch_event { path; kind })
  | Txn.Terror -> ()
  | Txn.Tprep { txid; coord; ops } ->
      if not (Hashtbl.mem t.prepared txid || audited t txid) then begin
        let ok = locks_free t ~txid ops && List.for_all (wop_valid t) ops in
        if ok then begin
          List.iter
            (fun path -> Hashtbl.replace t.locks path txid)
            (lock_paths ops);
          Hashtbl.replace t.prepared txid (coord, ops);
          arm_status_probe t txid
        end;
        (* the leader of the moment reports the (replica-deterministic)
           vote; a no-vote leaves no trace — presumed abort *)
        if is_leader t then
          shard_send_frame t coord
            (Two_pc.Prepare_ack { txid; shard = t.shard_id; ok })
      end
  | Txn.Tdecide { txid; commit; participants } ->
      if not (Hashtbl.mem t.decisions txid) then begin
        Hashtbl.replace t.decisions txid commit;
        if is_leader t then begin
          List.iter
            (fun shard ->
              shard_send_frame t shard
                (if commit then Two_pc.Commit { txid }
                 else Two_pc.Abort { txid }))
            participants;
          match Hashtbl.find_opt t.coord_rounds txid with
          | Some cr ->
              cr.cr_done <- true;
              if cr.cr_session <> 0 then
                send_to_client t cr.cr_session
                  (P.Reply
                     { xid = cr.cr_xid;
                       result =
                         (if commit then P.Multi_ok
                          else P.Error Zerror.Txn_conflict) });
              Hashtbl.remove t.coord_rounds txid
          | None -> ()
        end
      end
  | Txn.Tresolve { txid; commit } -> (
      match Hashtbl.find_opt t.prepared txid with
      | None -> () (* duplicate or unknown outcome push: nothing parked *)
      | Some (_coord, ops) ->
          Hashtbl.remove t.prepared txid;
          Hashtbl.remove t.proposed_resolves txid;
          release_txn_locks t txid ops;
          t.txn_audit <- (txid, commit) :: t.txn_audit;
          if commit then
            List.iter
              (fun op ->
                match op with
                | Two_pc.Wcreate { path; data } ->
                    apply_op t
                      (Txn.Tcreate { path; data; ephemeral_owner = None })
                | Two_pc.Wset { path; data } ->
                    let version =
                      match Data_tree.get_data t.tree path with
                      | Ok (_, stat) -> stat.Znode.version + 1
                      | Error _ -> 1
                    in
                    apply_op t (Txn.Tset { path; data; version })
                | Two_pc.Wdelete { path } ->
                    apply_op t (Txn.Tdelete { path }))
              ops)

(* --- snapshots (§3.8 state transfer) --- *)

type snapshot = {
  snap_tree : Data_tree.portable;
  snap_sessions : (int * session_info) list;
  snap_blocked : (string * (int * int * int) list) list;
  snap_locks : (string * string) list;  (** 2PC path locks (§6j) *)
  snap_prepared : (string * (int * Two_pc.wop list)) list;
  snap_decisions : (string * bool) list;
  snap_audit : (string * bool) list;  (** oldest first *)
}

(* Snapshot blobs cross the wire and are re-read by other replicas (and,
   eventually, other OCaml versions): they go through the deterministic
   binary codec, never [Marshal], streamed straight to bytes so compaction
   serializes a 10k-node tree without building an intermediate [Wire.t].
   Inputs are pre-sorted by {!snapshot_state}, so equal states yield
   byte-identical frames. *)
let write_snapshot w s =
  let module W = Wire.Writer in
  W.begin_list w;
  Wire_format.write_portable w s.snap_tree;
  W.list w
    (fun w (session, (info : session_info)) ->
      W.begin_list w;
      W.int w session;
      W.int w info.client_addr;
      W.int w info.owner_replica;
      W.end_list w)
    s.snap_sessions;
  W.list w
    (fun w (path, waiters) ->
      W.begin_list w;
      W.str w path;
      W.list w
        (fun w (s, o, x) ->
          W.begin_list w;
          W.int w s;
          W.int w o;
          W.int w x;
          W.end_list w)
        waiters;
      W.end_list w)
    s.snap_blocked;
  W.list w
    (fun w (path, txid) ->
      W.begin_list w;
      W.str w path;
      W.str w txid;
      W.end_list w)
    s.snap_locks;
  W.list w
    (fun w (txid, (coord, ops)) ->
      W.begin_list w;
      W.str w txid;
      W.int w coord;
      W.list w Two_pc.write_wop ops;
      W.end_list w)
    s.snap_prepared;
  let decided_entry w (txid, commit) =
    W.begin_list w;
    W.str w txid;
    W.bool w commit;
    W.end_list w
  in
  W.list w decided_entry s.snap_decisions;
  W.list w decided_entry s.snap_audit;
  W.end_list w

(* Total over untrusted bytes, and pure: a malformed blob aborts the
   enclosing [Wire.Reader.run] before any replica state is touched. *)
let read_snapshot r =
  let module R = Wire.Reader in
  R.begin_list r;
  let snap_tree = Wire_format.read_portable r in
  let snap_sessions =
    R.list r (fun r ->
        R.begin_list r;
        let session = R.int r in
        let client_addr = R.int r in
        let owner_replica = R.int r in
        R.end_list r;
        (session, { client_addr; owner_replica }))
  in
  let snap_blocked =
    R.list r (fun r ->
        R.begin_list r;
        let path = R.str r in
        let waiters =
          R.list r (fun r ->
              R.begin_list r;
              let s = R.int r in
              let o = R.int r in
              let x = R.int r in
              R.end_list r;
              (s, o, x))
        in
        R.end_list r;
        (path, waiters))
  in
  let snap_locks =
    R.list r (fun r ->
        R.begin_list r;
        let path = R.str r in
        let txid = R.str r in
        R.end_list r;
        (path, txid))
  in
  let snap_prepared =
    R.list r (fun r ->
        R.begin_list r;
        let txid = R.str r in
        let coord = R.int r in
        let ops = R.list r Two_pc.read_wop in
        R.end_list r;
        (txid, (coord, ops)))
  in
  let decided_entry r =
    R.begin_list r;
    let txid = R.str r in
    let commit = R.bool r in
    R.end_list r;
    (txid, commit)
  in
  let snap_decisions = R.list r decided_entry in
  let snap_audit = R.list r decided_entry in
  R.end_list r;
  { snap_tree; snap_sessions; snap_blocked; snap_locks; snap_prepared;
    snap_decisions; snap_audit }

(** Capture the replica's whole replicated state (tree, sessions, parked
    blocking calls).  Must correspond exactly to the delivered prefix —
    guaranteed because the simulator applies transactions synchronously.

    The capture itself is O(sessions + blocked), NOT O(tree): the tree is
    pinned by a copy-on-write handle ({!Data_tree.export}), and the
    returned closure does the materialize + encode work only if a state
    transfer ever needs the bytes.  Sessions and blocked entries are
    snapshotted eagerly (they are small, and [session_info] is mutable so
    sharing it with the live table would let later moves corrupt the
    image), sorted so the serialized blob is byte-identical across
    replicas in the same state. *)
let snapshot_state t =
  let snap_sessions =
    Hashtbl.fold
      (fun k (v : session_info) acc ->
        (k, { v with owner_replica = v.owner_replica }) :: acc)
      t.sessions []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let snap_blocked =
    Hashtbl.fold (fun k v acc -> (k, List.sort compare !v) :: acc) t.blocked []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let sorted_of_tbl tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let snap_locks = sorted_of_tbl t.locks in
  let snap_prepared = sorted_of_tbl t.prepared in
  let snap_decisions = sorted_of_tbl t.decisions in
  let snap_audit = List.rev t.txn_audit in
  fun snap_tree ->
    { snap_tree; snap_sessions; snap_blocked; snap_locks; snap_prepared;
      snap_decisions; snap_audit }

let capture_snapshot t =
  (match t.snap_image with Some h -> Data_tree.release h | None -> ());
  let image = Data_tree.export t.tree in
  t.snap_image <- Some image;
  t.snap_captures <- t.snap_captures + 1;
  let of_tree = snapshot_state t in
  fun () ->
    t.snap_serializations <- t.snap_serializations + 1;
    Wire.Writer.with_writer (fun w ->
        write_snapshot w (of_tree (Data_tree.materialize image)))

(* A one-off capture: its image is released at once, so the handle that
   compaction retained for state transfer is left alone. *)
let snapshot_bytes t =
  let image = Data_tree.export t.tree in
  let snap = snapshot_state t (Data_tree.materialize image) in
  Data_tree.release image;
  Wire.Writer.with_writer (fun w -> write_snapshot w snap)

(** The blob is untrusted bytes off the wire: decode fully (a pure step)
    before touching any state, so a corrupt or truncated blob leaves the
    replica exactly as it was and the transfer layer can re-request. *)
let install_snapshot t blob =
  match Wire.Reader.run blob read_snapshot with
  | Error _ as e -> e
  | Ok snap ->
      Data_tree.import_portable t.tree snap.snap_tree;
      Hashtbl.reset t.sessions;
      List.iter (fun (k, v) -> Hashtbl.replace t.sessions k v) snap.snap_sessions;
      Hashtbl.reset t.blocked;
      List.iter
        (fun (k, v) -> Hashtbl.replace t.blocked k (ref v))
        snap.snap_blocked;
      Hashtbl.reset t.locks;
      List.iter (fun (k, v) -> Hashtbl.replace t.locks k v) snap.snap_locks;
      Hashtbl.reset t.prepared;
      List.iter
        (fun (k, v) ->
          Hashtbl.replace t.prepared k v;
          arm_status_probe t k)
        snap.snap_prepared;
      Hashtbl.reset t.decisions;
      List.iter
        (fun (k, v) -> Hashtbl.replace t.decisions k v)
        snap.snap_decisions;
      t.txn_audit <- List.rev snap.snap_audit;
      t.snap_installs <- t.snap_installs + 1;
      (* the installed blob puts us exactly at a snapshot horizon: restart
         the interval so we do not immediately re-capture state we just
         received *)
      t.txns_since_snapshot <- 0;
      t.hook_on_snapshot_installed t;
      Ok ()

let maybe_compact t =
  if t.config.snapshot_interval > 0 then begin
    t.txns_since_snapshot <- t.txns_since_snapshot + 1;
    if t.txns_since_snapshot >= t.config.snapshot_interval then
      let z = zab t in
      if Zab.delivered_length z > Zab.compaction_base z then begin
        t.txns_since_snapshot <- 0;
        Zab.compact z ~take:(fun () -> capture_snapshot t)
      end
      else
        (* the log prefix is already compacted to this horizon (e.g. we
           just installed a snapshot): no state to capture *)
        t.snap_skipped <- t.snap_skipped + 1
  end

let final_process t (txn : Txn.t) =
  List.iter (apply_op t) txn.ops;
  t.txns_applied <- t.txns_applied + 1;
  maybe_compact t;
  if is_leader t then begin
    List.iter (Spec_view.on_applied_op t.spec) txn.ops;
    if t.outstanding > 0 then t.outstanding <- t.outstanding - 1;
    (* Quiescent leader: speculation equals committed state, so the pending
       table can be dropped (bounds its growth). *)
    if t.outstanding = 0 then Spec_view.reset t.spec
  end;
  (* Reply from the replica the client is connected to, with the
     piggybacked result (paper §5.1.2). *)
  (match txn.origin with
  | Some origin when origin = t.id && txn.session <> 0 ->
      send_to_client t txn.session (P.Reply { xid = txn.xid; result = txn.result })
  | _ -> ());
  t.hook_on_applied t txn

(* ------------------------------------------------------------------ *)
(* Proposer stage                                                      *)
(* ------------------------------------------------------------------ *)

let reply_direct t ~session ~xid result =
  (* Used for errors detected before ordering and for leader-served reads:
     the reply goes straight to the client. *)
  match client_addr_of t session with
  | Some addr -> send_wire t ~dst:addr (Server_msg (P.Reply { xid; result }))
  | None -> ()

let propose t (txn : Txn.t) =
  t.proposals <- t.proposals + 1;
  t.outstanding <- t.outstanding + 1;
  match Zab.propose (zab t) txn with
  | Some _ -> ()
  | None ->
      t.outstanding <- t.outstanding - 1;
      if txn.session <> 0 then
        reply_direct t ~session:txn.session ~xid:txn.xid
          (P.Error Zerror.Not_leader)

(* ------------------------------------------------------------------ *)
(* Cross-shard commit, coordinator + participant front ends (§6j)      *)
(* ------------------------------------------------------------------ *)

(** Decide an open round.  Commit rides this shard's log ([Tdecide] — the
    commit point; pushes and the client reply happen when it applies, on
    whoever is leader then).  Abort is presumed: no record, just pushes
    and the reply — any state a dead leader forgets aborts by default. *)
let decide_round t txid cr commit =
  if not cr.cr_done then
    if commit then begin
      cr.cr_done <- true;
      t.txns_committed <- t.txns_committed + 1;
      propose t
        (Txn.internal
           [ Txn.Tdecide
               { txid; commit = true; participants = cr.cr_participants } ])
    end
    else begin
      cr.cr_done <- true;
      t.txns_aborted <- t.txns_aborted + 1;
      List.iter
        (fun shard -> shard_send_frame t shard (Two_pc.Abort { txid }))
        cr.cr_participants;
      if cr.cr_session <> 0 then
        reply_direct t ~session:cr.cr_session ~xid:cr.cr_xid
          (P.Error Zerror.Txn_conflict);
      Hashtbl.remove t.coord_rounds txid
    end

let round_expired t cr =
  Sim_time.(
    txn_coord_timeout <= Sim_time.sub (Sim.now t.sim) cr.cr_started)

(** Coordinator heartbeat: re-send [Prepare] to silent participants,
    presumed-abort the round past the deadline. *)
let rec coord_tick t txid () =
  match Hashtbl.find_opt t.coord_rounds txid with
  | None -> ()
  | Some cr when cr.cr_done -> ()
  | Some cr ->
      if round_expired t cr then decide_round t txid cr false
      else begin
        List.iter
          (fun (shard, ops) ->
            if not (List.mem shard cr.cr_acks) then
              shard_send_frame t shard
                (Two_pc.Prepare
                   { txid; coord = t.shard_id;
                     participants = cr.cr_participants; ops }))
          cr.cr_slices;
        Sim.schedule t.sim ~after:txn_retry_interval
          (coord_tick t txid)
      end

let start_cross_shard t ~session ~xid slices =
  t.txn_counter <- t.txn_counter + 1;
  let txid =
    Fmt.str "s%d.e%d.%d" t.shard_id (Zab.epoch (zab t)) t.txn_counter
  in
  let participants = List.map fst slices in
  let cr =
    {
      cr_participants = participants;
      cr_slices = slices;
      cr_acks = [];
      cr_done = false;
      cr_origin = 0;
      cr_session = session;
      cr_xid = xid;
      cr_started = Sim.now t.sim;
    }
  in
  Hashtbl.replace t.coord_rounds txid cr;
  t.txns_coordinated <- t.txns_coordinated + 1;
  List.iter
    (fun (shard, ops) ->
      shard_send_frame t shard
        (Two_pc.Prepare { txid; coord = t.shard_id; participants; ops }))
    slices;
  Sim.schedule t.sim ~after:txn_retry_interval (coord_tick t txid)

let handle_prepare_ack t txid shard ok =
  match Hashtbl.find_opt t.coord_rounds txid with
  | None -> () (* a previous leader's round; participants recover via Status *)
  | Some cr when cr.cr_done -> ()
  | Some cr ->
      if not ok then decide_round t txid cr false
      else begin
        if not (List.mem shard cr.cr_acks) then
          cr.cr_acks <- shard :: cr.cr_acks;
        if
          List.for_all (fun s -> List.mem s cr.cr_acks) cr.cr_participants
        then decide_round t txid cr true
      end

(** Answer an in-doubt participant from replicated state.  No decision
    record and no live round means no commit can ever be decided —
    presumed abort.  A live round is NOT evidence either way: probes are
    cadence-driven (the default [txn_status_interval] fires well inside
    [txn_coord_timeout]), so a round that is still collecting votes is
    left alone unless it is already past the coordinator deadline — then
    it is aborted on the spot, the same presumed-abort the next
    {!coord_tick} would apply.  A round whose commit decision is in
    flight ([cr_done] set, [Tdecide] proposed but not yet applied) gets
    no answer at all: answering Abort there lets one participant resolve
    abort while the commit record lands and pushes Commit to the rest —
    a partial commit.  Silence is safe — the probe retries, and by then
    either the record applied (the decision table answers Commit) or
    this leader fell (its volatile rounds die with it and the record,
    never committed, resolves to presumed abort under the next one). *)
let handle_status t txid from_shard =
  match Hashtbl.find_opt t.decisions txid with
  | Some true -> shard_send_frame t from_shard (Two_pc.Commit { txid })
  | Some false -> shard_send_frame t from_shard (Two_pc.Abort { txid })
  | None -> (
      match Hashtbl.find_opt t.coord_rounds txid with
      | Some cr when not cr.cr_done ->
          if round_expired t cr then decide_round t txid cr false
      | Some _ -> () (* commit record in flight: answer after it applies *)
      | None -> shard_send_frame t from_shard (Two_pc.Abort { txid }))

(** Speculative prepare validation at the participant leader: same
    predicates as the apply-time vote, but against the speculative view
    (so in-flight normal writes are visible) plus both lock tables.  A
    spec-level no is answered without a log record. *)
let spec_wop_valid t op =
  match op with
  | Two_pc.Wcreate { path; _ } -> (
      Spec_view.exists t.spec path = None
      &&
      match Zpath.parent path with
      | None -> false
      | Some parent -> (
          match Spec_view.exists t.spec parent with
          | Some stat -> stat.Znode.ephemeral_owner = None
          | None -> false))
  | Two_pc.Wset { path; _ } -> Spec_view.exists t.spec path <> None
  | Two_pc.Wdelete { path } -> (
      match Spec_view.children t.spec path with Ok [] -> true | _ -> false)

let handle_prepare t ~txid ~coord ops =
  if audited t txid then
    (* already resolved here: re-tell the coordinator the final state *)
    shard_send_frame t coord
      (Two_pc.Prepare_ack
         { txid; shard = t.shard_id; ok = List.assoc txid t.txn_audit })
  else if Hashtbl.mem t.prepared txid then
    shard_send_frame t coord
      (Two_pc.Prepare_ack { txid; shard = t.shard_id; ok = true })
  else if Hashtbl.mem t.proposed_preps txid then
    () (* prepare already in our log pipeline; the vote rides its apply *)
  else begin
    let paths = lock_paths ops in
    let lock_ok =
      List.for_all
        (fun p ->
          (not (Hashtbl.mem t.locks p)) && not (Hashtbl.mem t.spec_locks p))
        paths
    in
    if lock_ok && List.for_all (spec_wop_valid t) ops then begin
      List.iter (fun p -> Hashtbl.replace t.spec_locks p txid) paths;
      Hashtbl.replace t.proposed_preps txid ();
      propose t (Txn.internal [ Txn.Tprep { txid; coord; ops } ])
    end
    else
      shard_send_frame t coord
        (Two_pc.Prepare_ack { txid; shard = t.shard_id; ok = false })
  end

let handle_outcome t txid commit =
  if Hashtbl.mem t.prepared txid && not (Hashtbl.mem t.proposed_resolves txid)
  then begin
    Hashtbl.replace t.proposed_resolves txid ();
    propose t (Txn.internal [ Txn.Tresolve { txid; commit } ])
  end

(** Entry point for the deployment's inter-shard plane: frames only mean
    something to a ready leader — anyone else drops them and lets the
    sender's retry/inquiry loop find the new leader. *)
let handle_shard_frame t frame =
  if is_leader t && t.leader_ready then
    match frame with
    | Two_pc.Prepare { txid; coord; participants = _; ops } ->
        handle_prepare t ~txid ~coord ops
    | Two_pc.Prepare_ack { txid; shard; ok } ->
        handle_prepare_ack t txid shard ok
    | Two_pc.Commit { txid } -> handle_outcome t txid true
    | Two_pc.Abort { txid } -> handle_outcome t txid false
    | Two_pc.Status { txid; from_shard } -> handle_status t txid from_shard

(** A path is write-blocked while a prepared transaction holds it (or its
    parent): the parked write will apply unconditionally at resolve, so
    nothing conflicting may slip into the log in between. *)
let write_locked t path =
  let l p = Hashtbl.mem t.locks p || Hashtbl.mem t.spec_locks p in
  l path || (match Zpath.parent path with Some p -> l p | None -> false)

(** Single-shard slice of a multi: all-or-nothing through the speculative
    view, one ordinary multi-op transaction. *)
let preprocess_local_multi t ~origin ~session ~xid ops =
  let reply_err e =
    propose t
      { origin = Some origin; session; xid; ops = [ Txn.Terror ];
        result = P.Error e; quiet = false }
  in
  if List.exists (fun op -> write_locked t (Two_pc.wop_path op)) ops then
    reply_err Zerror.Locked
  else begin
    Spec_view.begin_txn t.spec;
    let rec mint acc = function
      | [] -> Ok (List.rev acc)
      | op :: rest -> (
          let minted =
            match op with
            | Two_pc.Wcreate { path; data } ->
                Result.map
                  (fun (_, top) -> top)
                  (Spec_view.create_node t.spec ~path ~data
                     ~ephemeral_owner:None ~sequential:false)
            | Two_pc.Wset { path; data } ->
                Result.map
                  (fun (top, _) -> top)
                  (Spec_view.set_node t.spec ~path ~data
                     ~expected_version:None)
            | Two_pc.Wdelete { path } ->
                Spec_view.delete_node t.spec ~path ~version:None
          in
          match minted with
          | Ok top -> mint (top :: acc) rest
          | Error e -> Error e)
    in
    match mint [] ops with
    | Ok tops ->
        Spec_view.commit_txn t.spec;
        propose t
          { origin = Some origin; session; xid; ops = tops;
            result = P.Multi_ok; quiet = false }
    | Error e ->
        Spec_view.rollback_txn t.spec;
        reply_err e
  end

let preprocess_multi t ~origin ~session ~xid ops =
  let slices =
    match t.shard_route with
    | None -> [ (t.shard_id, ops) ]
    | Some route ->
        let tbl = Hashtbl.create 4 in
        let order = ref [] in
        List.iter
          (fun op ->
            let s = route (Two_pc.wop_path op) in
            match Hashtbl.find_opt tbl s with
            | Some slice -> slice := op :: !slice
            | None ->
                Hashtbl.replace tbl s (ref [ op ]);
                order := s :: !order)
          ops;
        List.rev_map (fun s -> (s, List.rev !(Hashtbl.find tbl s))) !order
  in
  match slices with
  | [] -> reply_direct t ~session ~xid P.Multi_ok
  | [ (shard, ops) ] when shard = t.shard_id ->
      preprocess_local_multi t ~origin ~session ~xid ops
  | _ when t.shard_send = None ->
      reply_direct t ~session ~xid (P.Error Zerror.Unsupported)
  | _ -> start_cross_shard t ~session ~xid slices

(* ------------------------------------------------------------------ *)
(* Preprocessor stage (leader only)                                    *)
(* ------------------------------------------------------------------ *)

(** Leader-side read reply (§6i).  Under a valid lease the committed tree
    is served directly: a voting majority has promised not to elect
    another leader before our lease expires, so no later write can have
    committed elsewhere.  Without the lease the read result rides a quiet
    no-op through the commit path — the reply only reaches the client if
    the barrier commits, which proves this replica was still the leader
    at the read's serialization point. *)
let reply_read t ~origin ~session ~xid result =
  if not t.config.linearizable_reads then reply_direct t ~session ~xid result
  else if Zab.can_serve_lease_read (zab t) then begin
    t.lease_reads <- t.lease_reads + 1;
    reply_direct t ~session ~xid result
  end
  else begin
    t.quorum_reads <- t.quorum_reads + 1;
    propose t
      { origin = Some origin; session; xid; ops = [ Txn.Terror ]; result; quiet = true }
  end

let preprocess_normal t ~origin ~session ~xid op =
  let locked_target =
    (* A prepared cross-shard transaction holds its paths (and their
       parents) until resolution; conflicting normal writes must not be
       ordered in between (§6j). *)
    match op with
    | P.Create { path; _ } | P.Delete { path; _ } | P.Set_data { path; _ } ->
        write_locked t path
    | _ -> false
  in
  if locked_target then
    propose t
      { origin = Some origin; session; xid; ops = [ Txn.Terror ];
        result = P.Error Zerror.Locked; quiet = false }
  else
  match op with
  | P.Multi { ops } -> preprocess_multi t ~origin ~session ~xid ops
  | P.Create { path; data; ephemeral; sequential } -> (
      let ephemeral_owner = if ephemeral then Some session else None in
      match Spec_view.create_node t.spec ~path ~data ~ephemeral_owner ~sequential with
      | Ok (actual, top) ->
          propose t
            { origin = Some origin; session; xid; ops = [ top ]; result = P.Created actual; quiet = false }
      | Error e ->
          propose t
            { origin = Some origin; session; xid; ops = [ Txn.Terror ]; result = P.Error e; quiet = false })
  | P.Delete { path; version } -> (
      match Spec_view.delete_node t.spec ~path ~version with
      | Ok top ->
          propose t
            { origin = Some origin; session; xid; ops = [ top ]; result = P.Deleted; quiet = false }
      | Error e ->
          propose t
            { origin = Some origin; session; xid; ops = [ Txn.Terror ]; result = P.Error e; quiet = false })
  | P.Set_data { path; data; expected_version } -> (
      match Spec_view.set_node t.spec ~path ~data ~expected_version with
      | Ok (top, version) ->
          propose t
            { origin = Some origin; session; xid; ops = [ top ]; result = P.Set { version }; quiet = false }
      | Error e ->
          propose t
            { origin = Some origin; session; xid; ops = [ Txn.Terror ]; result = P.Error e; quiet = false })
  | P.Get_data { path; _ } ->
      (* Leader-served read: either an extension-matched read whose
         extension vanished, or any read under [linearizable_reads]. *)
      let result =
        match Data_tree.get_data t.tree path with
        | Ok (d, s) -> P.Data (d, s)
        | Error e -> P.Error e
      in
      reply_read t ~origin ~session ~xid result
  | P.Get_children { path; _ } ->
      let result =
        match Data_tree.get_children t.tree path with
        | Ok c -> P.Children c
        | Error e -> P.Error e
      in
      reply_read t ~origin ~session ~xid result
  | P.Exists { path; _ } ->
      reply_read t ~origin ~session ~xid (P.Stat_of (Data_tree.exists t.tree path))
  | P.Block _ ->
      (* Blocking calls only exist through operation extensions. *)
      reply_direct t ~session ~xid (P.Error Zerror.Unsupported)
  | P.Sync ->
      (* Commit-path barrier: [Synced] is delivered from the origin
         replica only after that replica has applied every transaction
         ordered before the barrier — read-your-writes for the issuing
         client even when its reads are served by an observer or a
         session cache. *)
      propose t
        { origin = Some origin; session; xid; ops = [ Txn.Terror ];
          result = P.Synced; quiet = true }

let preprocess t ~origin ~session ~xid op =
  if not (session_exists t session) then
    reply_direct t ~session ~xid (P.Error Zerror.Session_expired)
  else begin
    Hashtbl.replace t.last_touch session (Sim.now t.sim);
    match t.hook_intercept t ~origin ~session ~xid op with
    | Handled (ops, result) ->
        propose t { origin = Some origin; session; xid; ops; result; quiet = false }
    | Handled_deferred ops ->
        propose t { origin = None; session; xid; ops; result = P.Synced; quiet = false }
    | Reject e -> reply_direct t ~session ~xid (P.Error e)
    | Pass -> preprocess_normal t ~origin ~session ~xid op
  end

let enqueue_preprocess t ~origin ~session ~xid op =
  if t.leader_ready then
    (* The preprocessor is a serial stage: its CPU cost is what saturates
       the leader under load. *)
    Cpu.exec t.cpu ~cost:t.config.preprocess_cost (fun () ->
        if is_leader t then preprocess t ~origin ~session ~xid op)
  else t.deferred <- (origin, session, xid, op) :: t.deferred

let drain_deferred t =
  let ds = List.rev t.deferred in
  t.deferred <- [];
  List.iter (fun (origin, session, xid, op) -> enqueue_preprocess t ~origin ~session ~xid op) ds

(** [propose_internal t ?quiet ops] — leader-side entry point for
    service-internal multi-transactions (bootstrap objects, event-extension
    follow-ups). *)
let propose_internal t ?(quiet = false) ops =
  if is_leader t then propose t (Txn.internal ~quiet ops)

(* --- session lifecycle at the leader --- *)

let preprocess_connect t ~origin ~client_addr =
  t.session_counter <- t.session_counter + 1;
  let session = (Zab.epoch (zab t) * 1_000_000) + t.session_counter in
  propose t
    {
      origin = None;
      session = 0;
      xid = 0;
      ops = [ Txn.Tsession_open { session; client_addr; owner_replica = origin } ];
      result = P.Synced;
      quiet = false;
    }

let preprocess_reconnect t ~origin ~session =
  if session_exists t session then begin
    Hashtbl.replace t.last_touch session (Sim.now t.sim);
    propose t
      (Txn.internal [ Txn.Tsession_move { session; owner_replica = origin } ])
  end

let preprocess_close t ~session =
  if session_exists t session then begin
    let deletes =
      Spec_view.ephemerals_of_session t.spec session
      |> List.filter_map (fun path ->
             match Spec_view.delete_node t.spec ~path ~version:None with
             | Ok top -> Some top
             | Error _ -> None)
    in
    propose t (Txn.internal (deletes @ [ Txn.Tsession_close { session } ]))
  end

(* ------------------------------------------------------------------ *)
(* Local read path                                                     *)
(* ------------------------------------------------------------------ *)

let serve_read t ~session ~xid op =
  t.reads_served <- t.reads_served + 1;
  let reply result = send_to_client t session (P.Reply { xid; result }) in
  match op with
  | P.Get_data { path; watch } ->
      (match Data_tree.get_data t.tree path with
      | Ok (d, s) ->
          if watch then Watch_manager.add t.watch Watch_manager.Data path session;
          reply (P.Data (d, s))
      | Error e ->
          (* A data watch on a missing node is an exists-style watch. *)
          if watch then Watch_manager.add t.watch Watch_manager.Data path session;
          reply (P.Error e))
  | P.Get_children { path; watch } ->
      (match Data_tree.get_children t.tree path with
      | Ok c ->
          if watch then Watch_manager.add t.watch Watch_manager.Children path session;
          reply (P.Children c)
      | Error e -> reply (P.Error e))
  | P.Exists { path; watch } ->
      if watch then Watch_manager.add t.watch Watch_manager.Data path session;
      reply (P.Stat_of (Data_tree.exists t.tree path))
  | P.Sync -> reply P.Synced
  | P.Block _ | P.Create _ | P.Delete _ | P.Set_data _ | P.Multi _ ->
      reply (P.Error Zerror.Unsupported)

(* ------------------------------------------------------------------ *)
(* Request routing                                                     *)
(* ------------------------------------------------------------------ *)

let forward_to_leader t msg =
  match Zab.leader_hint (zab t) with
  | Some leader when leader = t.id -> (
      (* We are the leader: loop the message back to ourselves. *)
      match msg with
      | Forward { origin; session; xid; op } ->
          enqueue_preprocess t ~origin ~session ~xid op
      | Forward_connect { origin; client_addr } ->
          preprocess_connect t ~origin ~client_addr
      | Forward_reconnect { origin; session } ->
          preprocess_reconnect t ~origin ~session
      | Forward_close { session } -> preprocess_close t ~session
      | Touch { session } ->
          if session_exists t session then
            Hashtbl.replace t.last_touch session (Sim.now t.sim)
      | Client_msg _ | Server_msg _ | Zab_msg _ -> ())
  | Some leader -> send_wire t ~dst:leader msg
  | None -> () (* no leader known; the client will time out and retry *)

let is_read_op = function
  | P.Get_data _ | P.Get_children _ | P.Exists _ | P.Sync -> true
  | P.Create _ | P.Delete _ | P.Set_data _ | P.Block _ | P.Multi _ -> false

(* [Sync] counts as a read for refusal purposes but is never served from
   local state: it always travels to the leader and back through the
   commit path so it can act as a read-your-writes barrier. *)
let is_local_read_op = function
  | P.Get_data _ | P.Get_children _ | P.Exists _ -> true
  | P.Sync | P.Create _ | P.Delete _ | P.Set_data _ | P.Block _ | P.Multi _ ->
      false

(* Reads that travel to the leader still arm their watch at the origin
   replica: watch events are delivered by the replica owning the session.
   Registering before the read completes is safe — at worst the watch
   fires for a change the read already observed, a spurious
   invalidation. *)
let register_read_watch t ~session op =
  match op with
  | P.Get_data { path; watch = true } | P.Exists { path; watch = true } ->
      Watch_manager.add t.watch Watch_manager.Data path session
  | P.Get_children { path; watch = true } ->
      Watch_manager.add t.watch Watch_manager.Children path session
  | _ -> ()

let handle_request t ~src ~session ~xid op =
  if not (session_exists t session) then
    send_wire t ~dst:src
      (Server_msg (P.Reply { xid; result = P.Error Zerror.Session_expired }))
  else if
    is_read_op op
    && (Zab.is_fenced (zab t)
       || not (Zab.is_observer (zab t) || List.mem t.id (Zab.members (zab t))))
  then
    (* Fenced (removed from the member set) or a still-joining learner:
       local committed state may be arbitrarily stale, so refuse the read
       fast path.  [Not_leader] makes resilient sessions fail over to a
       live member.  Observers are permanent consumers of the commit
       stream and serve sequentially-consistent reads even though they
       are outside the voting member set. *)
    send_wire t ~dst:src
      (Server_msg (P.Reply { xid; result = P.Error Zerror.Not_leader }))
  else if
    is_local_read_op op
    && (not t.config.linearizable_reads)
    && not (t.hook_read_needs_leader t ~session op)
  then
    Cpu.exec t.cpu ~cost:t.config.read_cost (fun () ->
        serve_read t ~session ~xid op)
  else begin
    if t.config.linearizable_reads && is_local_read_op op then
      register_read_watch t ~session op;
    forward_to_leader t (Forward { origin = t.id; session; xid; op })
  end

let handle_client_msg t ~src = function
  | P.Connect -> forward_to_leader t (Forward_connect { origin = t.id; client_addr = src })
  | P.Reconnect { session } ->
      forward_to_leader t (Forward_reconnect { origin = t.id; session })
  | P.Request { session; xid; op } -> handle_request t ~src ~session ~xid op
  | P.Ping { session } ->
      if session_exists t session then forward_to_leader t (Touch { session })
      else send_wire t ~dst:src (Server_msg P.Expired)
  | P.Close_session { session } -> forward_to_leader t (Forward_close { session })

let handle_wire t ~src msg =
  match msg with
  | Client_msg m -> handle_client_msg t ~src m
  | Zab_msg m -> Zab.handle (zab t) ~src m
  | Forward _ | Forward_connect _ | Forward_reconnect _ | Forward_close _
  | Touch _ ->
      if is_leader t then forward_to_leader t msg
      else forward_to_leader t msg (* re-forward toward current leader *)
  | Server_msg _ -> () (* not addressed to servers *)

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let rec expiry_tick t generation () =
  if generation = t.generation then begin
    if is_leader t && t.leader_ready then begin
      let now = Sim.now t.sim in
      let expired =
        Hashtbl.fold
          (fun session last acc ->
            if
              Sim_time.(session_timeout <= Sim_time.sub now last)
              && session_exists t session
            then session :: acc
            else acc)
          t.last_touch []
        |> List.sort compare
      in
      List.iter (fun session -> preprocess_close t ~session) expired
    end;
    Sim.schedule t.sim ~after:expiry_check_interval (expiry_tick t generation)
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let reset_2pc_volatile t =
  (* Leader-volatile 2PC state: open coordinator rounds die with their
     leader (participants recover through Status inquiries against the
     replicated decision table); speculative locks and proposal dedup
     marks are rebuilt from the log as it applies. *)
  Hashtbl.reset t.coord_rounds;
  Hashtbl.reset t.spec_locks;
  Hashtbl.reset t.proposed_preps;
  Hashtbl.reset t.proposed_resolves

let on_role_change t role =
  match role with
  | Zab.Leader ->
      t.ready_barrier <- Zab.log_length (zab t);
      Spec_view.reset t.spec;
      t.outstanding <- 0;
      reset_2pc_volatile t;
      t.leader_ready <- Zab.committed_length (zab t) >= t.ready_barrier;
      if t.leader_ready then drain_deferred t;
      (* Sessions: adopt last_touch for all known sessions so they do not
         expire instantly under a fresh leader. *)
      Hashtbl.iter
        (fun session _ -> Hashtbl.replace t.last_touch session (Sim.now t.sim))
        t.sessions
  | Zab.Follower | Zab.Candidate ->
      t.leader_ready <- false;
      t.deferred <- [];
      reset_2pc_volatile t

let check_ready t =
  if
    is_leader t && (not t.leader_ready)
    && Zab.committed_length (zab t) >= t.ready_barrier
  then begin
    t.leader_ready <- true;
    drain_deferred t
  end

let create ?(config = default_config) ?zab_config ?initial_leader
    ?(learner = false) ?(observer = false) ~sim ~net ~id ~replica_ids () =
  let t =
    {
      sim;
      net;
      id;
      replica_ids;
      config;
      tree = Data_tree.create ();
      zab = None;
      watch = Watch_manager.create ();
      sessions = Hashtbl.create 64;
      blocked = Hashtbl.create 64;
      spec = Spec_view.create (Data_tree.create ());
      leader_ready = false;
      ready_barrier = 0;
      deferred = [];
      last_touch = Hashtbl.create 64;
      session_counter = 0;
      outstanding = 0;
      generation = 0;
      cpu = Cpu.create sim;
      hook_intercept = (fun _ ~origin:_ ~session:_ ~xid:_ _ -> Pass);
      hook_read_needs_leader = (fun _ ~session:_ _ -> false);
      hook_on_applied = (fun _ _ -> ());
      hook_suppress_watch = (fun _ ~session:_ ~path:_ _ -> false);
      hook_on_snapshot_installed = (fun _ -> ());
      reads_served = 0;
      lease_reads = 0;
      quorum_reads = 0;
      txns_applied = 0;
      proposals = 0;
      wire_encodes = 0;
      wire_sends = 0;
      snap_image = None;
      txns_since_snapshot = 0;
      snap_captures = 0;
      snap_serializations = 0;
      snap_skipped = 0;
      snap_installs = 0;
      shard_id = 0;
      shard_route = None;
      shard_send = None;
      locks = Hashtbl.create 16;
      prepared = Hashtbl.create 16;
      probing = Hashtbl.create 16;
      decisions = Hashtbl.create 16;
      txn_audit = [];
      coord_rounds = Hashtbl.create 16;
      spec_locks = Hashtbl.create 16;
      proposed_preps = Hashtbl.create 16;
      proposed_resolves = Hashtbl.create 16;
      txn_counter = 0;
      txns_coordinated = 0;
      txns_committed = 0;
      txns_aborted = 0;
    }
  in
  (* The spec view must wrap the server's own tree. *)
  let t = { t with spec = Spec_view.create t.tree } in
  let send ~dst msg = send_wire t ~dst (Zab_msg msg) in
  let send_many ~dsts msg = send_wire_many t ~dsts (Zab_msg msg) in
  let z =
    Zab.create ?config:zab_config ?initial_leader ~learner ~observer ~sim ~id
      ~peers:replica_ids ~send ~send_many
      ~on_deliver:(fun _zxid txn ->
        final_process t txn;
        check_ready t)
      ()
  in
  t.zab <- Some z;
  Zab.set_install_snapshot z (fun blob -> install_snapshot t blob);
  Zab.set_on_role_change z (fun role -> on_role_change t role);
  t.leader_ready <- Zab.is_leader z;
  Transport.register net id (fun ~src ~size:_ msg -> handle_wire t ~src msg);
  t

let start t =
  t.generation <- t.generation + 1;
  Zab.start (zab t);
  Sim.schedule t.sim ~after:expiry_check_interval
    (expiry_tick t t.generation)

(** [crash t] takes the replica down (network detached by the caller). *)
let crash t =
  t.generation <- t.generation + 1;
  Zab.crash (zab t);
  t.leader_ready <- false;
  t.deferred <- []

let restart t =
  t.generation <- t.generation + 1;
  Zab.restart (zab t);
  Sim.schedule t.sim ~after:expiry_check_interval
    (expiry_tick t t.generation)

(** [set_sharding] plugs the replica into a sharded deployment: its own
    shard id, the deployment's path router (classifies multi ops), and a
    sender on the inter-shard plane (frames addressed by shard id; the
    deployment delivers them to that shard's current leader). *)
let set_sharding t ~shard_id ~route ~send =
  t.shard_id <- shard_id;
  t.shard_route <- Some route;
  t.shard_send <- Some send

(* Hook installation (used by EZK) *)
let set_hook_intercept t f = t.hook_intercept <- f
let set_hook_read_needs_leader t f = t.hook_read_needs_leader <- f
let set_hook_on_applied t f = t.hook_on_applied <- f
let set_hook_suppress_watch t f = t.hook_suppress_watch <- f
let set_hook_on_snapshot_installed t f = t.hook_on_snapshot_installed <- f
