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
    at their defaults and pays nothing for them.  Cross-shard commit is
    {!Cross_shard}, called from the preprocessor, [apply_op], snapshots
    and role changes. *)

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

type t = {
  sim : Sim.t;
  net : wire Transport.t;
  id : int;
  config : config;
  tree : Data_tree.t;
  mutable zab : Txn.t Zab.t option;  (** set right after creation *)
  mutable cross : Cross_shard.t option;  (** likewise *)
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
}

let tree t = t.tree
let zab t = match t.zab with Some z -> z | None -> invalid_arg "server not wired"

let cross_shard t =
  match t.cross with Some x -> x | None -> invalid_arg "server not wired"

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

(* Errors detected before ordering and leader-served reads: the reply
   goes straight to the client. *)
let reply t ~session ~xid result = send_to_client t session (P.Reply { xid; result })

(* ------------------------------------------------------------------ *)
(* Final processor: apply committed transactions                       *)
(* ------------------------------------------------------------------ *)

let fire_watches t table path kind =
  List.iter
    (fun session ->
      if
        session_owned_here t session
        && not (t.hook_suppress_watch t ~session ~path kind)
      then send_to_client t session (P.Watch_event { path; kind }))
    (Watch_manager.fire t.watch table path)

(* A create or delete also changes the parent's child set. *)
let fire_parent_watches t path =
  match Zpath.parent path with
  | Some parent ->
      fire_watches t Watch_manager.Children parent P.Children_changed
  | None -> ()

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

let rec apply_op t op =
  match op with
  | Txn.Tcreate { path; data; ephemeral_owner } ->
      Data_tree.apply_create t.tree ~path ~data ~ephemeral_owner;
      fire_watches t Watch_manager.Data path P.Node_created;
      fire_parent_watches t path;
      unblock_waiters t path
  | Txn.Tdelete { path } ->
      Data_tree.apply_delete t.tree ~path;
      fire_watches t Watch_manager.Data path P.Node_deleted;
      fire_parent_watches t path
  | Txn.Tset { path; data; version } ->
      Data_tree.apply_set t.tree ~path ~data ~version;
      fire_watches t Watch_manager.Data path P.Node_changed
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
  | Txn.Tprep _ | Txn.Tdecide _ | Txn.Tresolve _ ->
      let xs = cross_shard t in
      List.iter
        (fun w -> apply_op t (Cross_shard.resolved_op xs w))
        (Cross_shard.apply xs op)

(* --- snapshots (§3.8 state transfer) --- *)

type snapshot = {
  snap_tree : Data_tree.portable;
  snap_sessions : (int * session_info) list;
  snap_blocked : (string * (int * int * int) list) list;
  snap_2pc : Cross_shard.image;  (** the 2PC tables (§6j) *)
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
  Cross_shard.write_image w s.snap_2pc;
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
  let snap_2pc = Cross_shard.read_image r in
  R.end_list r;
  { snap_tree; snap_sessions; snap_blocked; snap_2pc }

(** Capture the replica's whole replicated state (tree, sessions, parked
    blocking calls, 2PC tables).  Must correspond exactly to the delivered prefix —
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
  let snap_2pc = Cross_shard.capture (cross_shard t) in
  fun snap_tree -> { snap_tree; snap_sessions; snap_blocked; snap_2pc }

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
      Cross_shard.install (cross_shard t) snap.snap_2pc;
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

let propose t (txn : Txn.t) =
  t.proposals <- t.proposals + 1;
  t.outstanding <- t.outstanding + 1;
  match Zab.propose (zab t) txn with
  | Some _ -> ()
  | None ->
      t.outstanding <- t.outstanding - 1;
      if txn.session <> 0 then
        reply t ~session:txn.session ~xid:txn.xid
          (P.Error Zerror.Not_leader)

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
  if not t.config.linearizable_reads then reply t ~session ~xid result
  else if Zab.can_serve_lease_read (zab t) then begin
    t.lease_reads <- t.lease_reads + 1;
    reply t ~session ~xid result
  end
  else begin
    t.quorum_reads <- t.quorum_reads + 1;
    propose t
      { origin = Some origin; session; xid; ops = [ Txn.Terror ]; result; quiet = true }
  end

(* A validated write becomes its transaction; a refused one becomes a
   no-op carrying the error, so the reply keeps its place in the order. *)
let propose_write t ~origin ~session ~xid = function
  | Ok (top, result) ->
      propose t { origin = Some origin; session; xid; ops = [ top ]; result; quiet = false }
  | Error e ->
      propose t
        { origin = Some origin; session; xid; ops = [ Txn.Terror ];
          result = P.Error e; quiet = false }

let preprocess_normal t ~origin ~session ~xid op =
  let write = propose_write t ~origin ~session ~xid in
  match op with
  | P.Create { path; _ } | P.Delete { path; _ } | P.Set_data { path; _ }
    when Cross_shard.write_locked (cross_shard t) path ->
      (* A prepared cross-shard transaction holds its paths (and their
         parents) until resolution (§6j). *)
      write (Error Zerror.Locked)
  | P.Multi { ops } ->
      Cross_shard.preprocess_multi (cross_shard t) ~origin ~session ~xid ops
  | P.Create { path; data; ephemeral; sequential } ->
      let ephemeral_owner = if ephemeral then Some session else None in
      Spec_view.create_node t.spec ~path ~data ~ephemeral_owner ~sequential
      |> Result.map (fun (actual, top) -> (top, P.Created actual))
      |> write
  | P.Delete { path; version } ->
      Spec_view.delete_node t.spec ~path ~version
      |> Result.map (fun top -> (top, P.Deleted))
      |> write
  | P.Set_data { path; data; expected_version } ->
      Spec_view.set_node t.spec ~path ~data ~expected_version
      |> Result.map (fun (top, version) -> (top, P.Set { version }))
      |> write
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
      reply t ~session ~xid (P.Error Zerror.Unsupported)
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
    reply t ~session ~xid (P.Error Zerror.Session_expired)
  else begin
    Hashtbl.replace t.last_touch session (Sim.now t.sim);
    match t.hook_intercept t ~origin ~session ~xid op with
    | Handled (ops, result) ->
        propose t { origin = Some origin; session; xid; ops; result; quiet = false }
    | Handled_deferred ops ->
        propose t { origin = None; session; xid; ops; result = P.Synced; quiet = false }
    | Reject e -> reply t ~session ~xid (P.Error e)
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
    (Txn.internal
       [ Txn.Tsession_open { session; client_addr; owner_replica = origin } ])

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
  let reply = reply t ~session ~xid in
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
      forward_to_leader t msg (* loop back, or re-forward toward the leader *)
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

let on_role_change t role =
  match role with
  | Zab.Leader ->
      t.ready_barrier <- Zab.log_length (zab t);
      Spec_view.reset t.spec;
      t.outstanding <- 0;
      Cross_shard.on_role_change (cross_shard t);
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
      Cross_shard.on_role_change (cross_shard t)

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
  let tree = Data_tree.create () in
  let t =
    {
      sim;
      net;
      id;
      config;
      tree;
      zab = None;
      cross = None;
      watch = Watch_manager.create ();
      sessions = Hashtbl.create 64;
      blocked = Hashtbl.create 64;
      spec = Spec_view.create tree;
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
    }
  in
  t.cross <-
    Some
      (Cross_shard.create
         {
           sim;
           tree;
           spec = t.spec;
           is_leader = (fun () -> is_leader t);
           leader_ready = (fun () -> t.leader_ready);
           epoch = (fun () -> Zab.epoch (zab t));
           propose = propose t;
           reply = reply t;
         });
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

(* Hook installation (used by EZK) *)
let set_hook_intercept t f = t.hook_intercept <- f
let set_hook_read_needs_leader t f = t.hook_read_needs_leader <- f
let set_hook_on_applied t f = t.hook_on_applied <- f
let set_hook_suppress_watch t f = t.hook_suppress_watch <- f
let set_hook_on_snapshot_installed t f = t.hook_on_snapshot_installed <- f
