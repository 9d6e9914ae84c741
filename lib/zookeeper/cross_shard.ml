(** Cross-shard atomic multi-writes: presumed-abort two-phase commit whose
    steps ride each shard's own replicated log (§6j).

    A layer beside the Figure 3 chain, not inside it: the server calls in
    at four points (the preprocessor for [Multi] requests and the
    [write_locked] check, [apply_op] for the three 2PC records, snapshot
    capture/install, and role changes), and this module calls back only
    through the {!env} closures it was created with. *)

open Edc_simnet
open Edc_replication
open Edc_wire
module P = Protocol

(** Coordinator: re-send [Prepare] to silent participants *)
let txn_retry_interval = Sim_time.ms 400

(** Coordinator: presumed-abort deadline for an open round *)
let txn_coord_timeout = Sim_time.ms 2500

(** Participant: in-doubt [Status] inquiry cadence *)
let txn_status_interval = Sim_time.ms 1200

type env = {
  sim : Sim.t;
  tree : Data_tree.t;
  spec : Spec_view.t;
  is_leader : unit -> bool;
  leader_ready : unit -> bool;
  epoch : unit -> int;
  propose : Txn.t -> unit;
  reply : session:int -> xid:int -> P.result -> unit;
}

(** One open coordinator round.  Leader-volatile by design: the only
    durable coordinator state is the decision record in this shard's log
    — presumed abort covers everything a dead leader forgets. *)
type coord_round = {
  cr_participants : int list;
  cr_slices : (int * Two_pc.wop list) list;  (** per-shard op slices *)
  mutable cr_acks : int list;  (** shards that voted yes *)
  mutable cr_done : bool;  (** decision reached (either way) *)
  cr_session : int;
  cr_xid : int;
  cr_started : Sim_time.t;
}

type t = {
  env : env;
  mutable shard_id : int;  (** this replica's shard; [0] when unsharded *)
  mutable route : (string -> int) option;  (** path -> owning shard *)
  mutable send : int -> Two_pc.frame -> unit;
      (** leader-to-leader inter-shard plane, installed by the deployment *)
  locks : (string, string) Hashtbl.t;  (** path -> txid; replicated *)
  prepared : (string, int * Two_pc.wop list) Hashtbl.t;
      (** txid -> (coordinator shard, parked writes); replicated *)
  decisions : (string, bool) Hashtbl.t;  (** txid -> committed; replicated *)
  mutable audit : (string * bool) list;
      (** resolve outcomes, newest first; replicated — the atomicity
          checker's evidence *)
  probing : (string, unit) Hashtbl.t;
      (** txids with a live in-doubt probe chain; replica-local, keeps
          [arm_status_probe] from stacking timers per txid *)
  coord_rounds : (string, coord_round) Hashtbl.t;  (** leader-volatile *)
  spec_locks : (string, string) Hashtbl.t;
      (** locks of our own proposed-but-unapplied [Tprep]s; leader-volatile *)
  proposed_preps : (string, unit) Hashtbl.t;  (** dedup per leader reign *)
  proposed_resolves : (string, unit) Hashtbl.t;
  mutable txn_counter : int;
}

let create env =
  {
    env;
    shard_id = 0;
    route = None;
    send = (fun _ _ -> ());
    locks = Hashtbl.create 16;
    prepared = Hashtbl.create 16;
    decisions = Hashtbl.create 16;
    audit = [];
    probing = Hashtbl.create 16;
    coord_rounds = Hashtbl.create 16;
    spec_locks = Hashtbl.create 16;
    proposed_preps = Hashtbl.create 16;
    proposed_resolves = Hashtbl.create 16;
    txn_counter = 0;
  }

let set_sharding t ~shard_id ~route ~send =
  t.shard_id <- shard_id;
  t.route <- Some route;
  t.send <- send

let txn_audit t = List.rev t.audit
let decided t txid = Hashtbl.find_opt t.decisions txid

let sorted_of_tbl tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let prepared_txns t =
  List.map (fun (txid, (coord, _)) -> (txid, coord)) (sorted_of_tbl t.prepared)
let locked_paths t = sorted_of_tbl t.locks

(* ------------------------------------------------------------------ *)
(* Apply side                                                          *)
(* ------------------------------------------------------------------ *)

(* Everything here runs identically on every replica of the shard (it is
   driven by applied log records), except the explicitly leader-gated
   sends: acks, outcome pushes, and client replies come from whoever is
   leader when the record applies — which is exactly how a new leader
   resumes a dead one's protocol duties. *)

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

(** Prepare-time validation over one view of the tree: the committed
    tree at apply time (every replica reaches the same vote from the same
    log prefix), or the leader's speculative view at prepare time (so
    in-flight normal writes are visible). *)
let wop_valid ~exists ~children op =
  match op with
  | Two_pc.Wcreate { path; _ } -> (
      exists path = None
      &&
      match Zpath.parent path with
      | None -> false
      | Some parent -> (
          match exists parent with
          | Some (stat : Znode.stat) -> stat.ephemeral_owner = None
          | None -> false))
  | Two_pc.Wset { path; _ } -> exists path <> None
  | Two_pc.Wdelete { path } -> (
      match children path with Ok [] -> true | Ok _ | Error _ -> false)

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

let audited t txid = List.mem_assoc txid t.audit

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
          if t.env.is_leader () then
            t.send coord (Two_pc.Status { txid; from_shard = t.shard_id });
          Sim.schedule t.env.sim ~after:txn_status_interval probe
    in
    Sim.schedule t.env.sim ~after:txn_status_interval probe
  end

let apply t op =
  match op with
  | Txn.Tprep { txid; coord; ops } ->
      if not (Hashtbl.mem t.prepared txid || audited t txid) then begin
        let tree = t.env.tree in
        let ok =
          locks_free t ~txid ops
          && List.for_all
               (wop_valid ~exists:(Data_tree.exists tree)
                  ~children:(Data_tree.get_children tree))
               ops
        in
        if ok then begin
          List.iter
            (fun path -> Hashtbl.replace t.locks path txid)
            (lock_paths ops);
          Hashtbl.replace t.prepared txid (coord, ops);
          arm_status_probe t txid
        end;
        (* the leader of the moment reports the (replica-deterministic)
           vote; a no-vote leaves no trace — presumed abort *)
        if t.env.is_leader () then
          t.send coord (Two_pc.Prepare_ack { txid; shard = t.shard_id; ok })
      end;
      []
  | Txn.Tdecide { txid; commit; participants } ->
      if not (Hashtbl.mem t.decisions txid) then begin
        Hashtbl.replace t.decisions txid commit;
        if t.env.is_leader () then begin
          List.iter
            (fun shard ->
              t.send shard
                (if commit then Two_pc.Commit { txid }
                 else Two_pc.Abort { txid }))
            participants;
          match Hashtbl.find_opt t.coord_rounds txid with
          | Some cr ->
              cr.cr_done <- true;
              if cr.cr_session <> 0 then
                t.env.reply ~session:cr.cr_session ~xid:cr.cr_xid
                  (if commit then P.Multi_ok else P.Error Zerror.Txn_conflict);
              Hashtbl.remove t.coord_rounds txid
          | None -> ()
        end
      end;
      []
  | Txn.Tresolve { txid; commit } -> (
      match Hashtbl.find_opt t.prepared txid with
      | None -> [] (* duplicate or unknown outcome push: nothing parked *)
      | Some (_coord, ops) ->
          Hashtbl.remove t.prepared txid;
          Hashtbl.remove t.proposed_resolves txid;
          release_txn_locks t txid ops;
          t.audit <- (txid, commit) :: t.audit;
          if commit then ops else [])
  | _ -> []

let resolved_op t = function
  | Two_pc.Wcreate { path; data } ->
      Txn.Tcreate { path; data; ephemeral_owner = None }
  | Two_pc.Wset { path; data } ->
      let version =
        match Data_tree.get_data t.env.tree path with
        | Ok (_, stat) -> stat.Znode.version + 1
        | Error _ -> 1
      in
      Txn.Tset { path; data; version }
  | Two_pc.Wdelete { path } -> Txn.Tdelete { path }

(* ------------------------------------------------------------------ *)
(* Snapshot sections                                                   *)
(* ------------------------------------------------------------------ *)

type image = {
  img_locks : (string * string) list;
  img_prepared : (string * (int * Two_pc.wop list)) list;
  img_decisions : (string * bool) list;
  img_audit : (string * bool) list;  (** oldest first *)
}

let capture t =
  {
    img_locks = sorted_of_tbl t.locks;
    img_prepared = sorted_of_tbl t.prepared;
    img_decisions = sorted_of_tbl t.decisions;
    img_audit = List.rev t.audit;
  }

(* Four sibling lists of the server's blob, one list element per entry;
   the reader is total and pure, like the rest of the blob's. *)
let write_image w img =
  let module W = Wire.Writer in
  let entry f w x = W.begin_list w; f w x; W.end_list w in
  W.list w (entry (fun w (path, txid) -> W.str w path; W.str w txid)) img.img_locks;
  W.list w
    (entry (fun w (txid, (coord, ops)) ->
         W.str w txid; W.int w coord; W.list w Two_pc.write_wop ops))
    img.img_prepared;
  let outcome = entry (fun w (txid, commit) -> W.str w txid; W.bool w commit) in
  W.list w outcome img.img_decisions;
  W.list w outcome img.img_audit

let read_image r =
  let module R = Wire.Reader in
  let entry f r = R.begin_list r; let x = f r in R.end_list r; x in
  let img_locks =
    R.list r (entry (fun r -> let path = R.str r in (path, R.str r)))
  in
  let img_prepared =
    R.list r
      (entry (fun r ->
           let txid = R.str r in
           let coord = R.int r in
           (txid, (coord, R.list r Two_pc.read_wop))))
  in
  let outcome = entry (fun r -> let txid = R.str r in (txid, R.bool r)) in
  let img_decisions = R.list r outcome in
  let img_audit = R.list r outcome in
  { img_locks; img_prepared; img_decisions; img_audit }

let install t img =
  Hashtbl.reset t.locks;
  List.iter (fun (k, v) -> Hashtbl.replace t.locks k v) img.img_locks;
  Hashtbl.reset t.prepared;
  List.iter
    (fun (k, v) ->
      Hashtbl.replace t.prepared k v;
      arm_status_probe t k)
    img.img_prepared;
  Hashtbl.reset t.decisions;
  List.iter (fun (k, v) -> Hashtbl.replace t.decisions k v) img.img_decisions;
  t.audit <- List.rev img.img_audit

(* ------------------------------------------------------------------ *)
(* Coordinator and participant front ends (leader only)                *)
(* ------------------------------------------------------------------ *)

(** Leader-volatile state: open coordinator rounds die with their leader
    (participants recover through Status inquiries against the
    replicated decision table); speculative locks and proposal dedup
    marks are rebuilt from the log as it applies. *)
let on_role_change t =
  Hashtbl.reset t.coord_rounds;
  Hashtbl.reset t.spec_locks;
  Hashtbl.reset t.proposed_preps;
  Hashtbl.reset t.proposed_resolves

(** Decide an open round.  Commit rides this shard's log ([Tdecide] — the
    commit point; pushes and the client reply happen when it applies, on
    whoever is leader then).  Abort is presumed: no record, just pushes
    and the reply — any state a dead leader forgets aborts by default. *)
let decide_round t txid cr commit =
  if not cr.cr_done then begin
    cr.cr_done <- true;
    if commit then
      t.env.propose
        (Txn.internal
           [ Txn.Tdecide
               { txid; commit = true; participants = cr.cr_participants } ])
    else begin
      List.iter (fun shard -> t.send shard (Two_pc.Abort { txid })) cr.cr_participants;
      if cr.cr_session <> 0 then
        t.env.reply ~session:cr.cr_session ~xid:cr.cr_xid
          (P.Error Zerror.Txn_conflict);
      Hashtbl.remove t.coord_rounds txid
    end
  end

let round_expired t cr =
  Sim_time.(txn_coord_timeout <= Sim_time.sub (Sim.now t.env.sim) cr.cr_started)

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
              t.send shard
                (Two_pc.Prepare
                   { txid; coord = t.shard_id;
                     participants = cr.cr_participants; ops }))
          cr.cr_slices;
        Sim.schedule t.env.sim ~after:txn_retry_interval (coord_tick t txid)
      end

let start_round t ~session ~xid slices =
  t.txn_counter <- t.txn_counter + 1;
  let txid = Fmt.str "s%d.e%d.%d" t.shard_id (t.env.epoch ()) t.txn_counter in
  let participants = List.map fst slices in
  Hashtbl.replace t.coord_rounds txid
    {
      cr_participants = participants;
      cr_slices = slices;
      cr_acks = [];
      cr_done = false;
      cr_session = session;
      cr_xid = xid;
      cr_started = Sim.now t.env.sim;
    };
  List.iter
    (fun (shard, ops) ->
      t.send shard (Two_pc.Prepare { txid; coord = t.shard_id; participants; ops }))
    slices;
  Sim.schedule t.env.sim ~after:txn_retry_interval (coord_tick t txid)

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
  | Some true -> t.send from_shard (Two_pc.Commit { txid })
  | Some false -> t.send from_shard (Two_pc.Abort { txid })
  | None -> (
      match Hashtbl.find_opt t.coord_rounds txid with
      | Some cr when not cr.cr_done ->
          if round_expired t cr then decide_round t txid cr false
      | Some _ -> () (* commit record in flight: answer after it applies *)
      | None -> t.send from_shard (Two_pc.Abort { txid }))

(** Speculative prepare validation at the participant leader: the
    apply-time vote's predicates over the speculative view, plus both
    lock tables.  A spec-level no is answered without a log record. *)
let handle_prepare t ~txid ~coord ops =
  let ack ok = t.send coord (Two_pc.Prepare_ack { txid; shard = t.shard_id; ok }) in
  if audited t txid then
    (* already resolved here: re-tell the coordinator the final state *)
    ack (List.assoc txid t.audit)
  else if Hashtbl.mem t.prepared txid then ack true
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
    let spec = t.env.spec in
    if
      lock_ok
      && List.for_all
           (wop_valid ~exists:(Spec_view.exists spec)
              ~children:(Spec_view.children spec))
           ops
    then begin
      List.iter (fun p -> Hashtbl.replace t.spec_locks p txid) paths;
      Hashtbl.replace t.proposed_preps txid ();
      t.env.propose (Txn.internal [ Txn.Tprep { txid; coord; ops } ])
    end
    else ack false
  end

let handle_outcome t txid commit =
  if Hashtbl.mem t.prepared txid && not (Hashtbl.mem t.proposed_resolves txid)
  then begin
    Hashtbl.replace t.proposed_resolves txid ();
    t.env.propose (Txn.internal [ Txn.Tresolve { txid; commit } ])
  end

let handle_shard_frame t frame =
  if t.env.is_leader () && t.env.leader_ready () then
    match frame with
    | Two_pc.Prepare { txid; coord; participants = _; ops } ->
        handle_prepare t ~txid ~coord ops
    | Two_pc.Prepare_ack { txid; shard; ok } ->
        handle_prepare_ack t txid shard ok
    | Two_pc.Commit { txid } -> handle_outcome t txid true
    | Two_pc.Abort { txid } -> handle_outcome t txid false
    | Two_pc.Status { txid; from_shard } -> handle_status t txid from_shard

let write_locked t path =
  let l p = Hashtbl.mem t.locks p || Hashtbl.mem t.spec_locks p in
  l path || (match Zpath.parent path with Some p -> l p | None -> false)

(* ------------------------------------------------------------------ *)
(* Multi routing at the preprocessor                                   *)
(* ------------------------------------------------------------------ *)

(** Single-shard slice of a multi: all-or-nothing through the speculative
    view, one ordinary multi-op transaction. *)
let preprocess_local_multi t ~origin ~session ~xid ops =
  let spec = t.env.spec in
  let reply_err e =
    t.env.propose
      { origin = Some origin; session; xid; ops = [ Txn.Terror ];
        result = P.Error e; quiet = false }
  in
  if List.exists (fun op -> write_locked t (Two_pc.wop_path op)) ops then
    reply_err Zerror.Locked
  else begin
    Spec_view.begin_txn spec;
    let rec mint acc = function
      | [] -> Ok (List.rev acc)
      | op :: rest -> (
          let minted =
            match op with
            | Two_pc.Wcreate { path; data } ->
                Result.map
                  (fun (_, top) -> top)
                  (Spec_view.create_node spec ~path ~data
                     ~ephemeral_owner:None ~sequential:false)
            | Two_pc.Wset { path; data } ->
                Result.map
                  (fun (top, _) -> top)
                  (Spec_view.set_node spec ~path ~data ~expected_version:None)
            | Two_pc.Wdelete { path } ->
                Spec_view.delete_node spec ~path ~version:None
          in
          match minted with
          | Ok top -> mint (top :: acc) rest
          | Error e -> Error e)
    in
    match mint [] ops with
    | Ok tops ->
        Spec_view.commit_txn spec;
        t.env.propose
          { origin = Some origin; session; xid; ops = tops;
            result = P.Multi_ok; quiet = false }
    | Error e ->
        Spec_view.rollback_txn spec;
        reply_err e
  end

let preprocess_multi t ~origin ~session ~xid ops =
  let slices =
    match t.route with
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
  | [] -> t.env.reply ~session ~xid P.Multi_ok
  | [ (shard, ops) ] when shard = t.shard_id ->
      preprocess_local_multi t ~origin ~session ~xid ops
  | _ -> start_round t ~session ~xid slices
