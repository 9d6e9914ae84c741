(** The leader's speculative view of the tree (outstanding change records).

    ZooKeeper's PrepRequestProcessor validates each request against the
    state the tree *will* have once every already-proposed transaction
    commits — otherwise two concurrent conditional updates could both pass
    validation and both succeed, destroying the compare-and-swap semantics
    the coordination recipes (and the paper's contention experiments)
    depend on.

    This module layers a table of pending per-path records over the
    committed {!Data_tree}; every mutation minted by the preprocessor (or
    by an extension running in the sandbox proxy) goes through here, both
    updating the speculation and yielding the idempotent {!Txn.op} to be
    replicated.  Extension reads also come through here, which is what
    gives extensions read-your-writes atomicity inside one invocation. *)

module Children = Znode.Children

type entry = {
  e_exists : bool;
  e_data : string;
  e_version : int;
  e_children : Children.t;
  e_cversion : int;
  e_ephemeral : int option;
  e_czxid : int;
}

type t = {
  tree : Data_tree.t;
  pending : (string, entry) Hashtbl.t;
  mutable pending_creates : int;
      (** creates proposed but not yet applied: offsets czxid speculation *)
  mutable journal : (string * entry option) list option;
      (** when [Some], undo records for an in-flight extension run *)
  mutable journal_creates : int;
}

let create tree =
  { tree; pending = Hashtbl.create 64; pending_creates = 0; journal = None;
    journal_creates = 0 }

let reset t =
  Hashtbl.reset t.pending;
  t.pending_creates <- 0;
  t.journal <- None

(* --- extension transactionality: an aborted sandbox run must leave the
   speculation exactly as it found it (§4.1.2: crashes inside extensions
   must not affect the service) --- *)

let begin_txn t =
  assert (t.journal = None);
  t.journal <- Some [];
  t.journal_creates <- t.pending_creates

let commit_txn t = t.journal <- None

let rollback_txn t =
  match t.journal with
  | None -> invalid_arg "Spec_view.rollback_txn: no journal"
  | Some undo ->
      List.iter
        (fun (path, prev) ->
          match prev with
          | Some e -> Hashtbl.replace t.pending path e
          | None -> Hashtbl.remove t.pending path)
        undo;
      t.pending_creates <- t.journal_creates;
      t.journal <- None

let record_undo t path =
  match t.journal with
  | None -> ()
  | Some undo ->
      if not (List.mem_assoc path undo) then
        t.journal <- Some ((path, Hashtbl.find_opt t.pending path) :: undo)

let absent =
  {
    e_exists = false;
    e_data = "";
    e_version = 0;
    e_children = Children.empty;
    e_cversion = 0;
    e_ephemeral = None;
    e_czxid = 0;
  }

let entry_of_node (n : Znode.t) =
  {
    e_exists = true;
    e_data = n.Znode.data;
    e_version = n.Znode.version;
    e_children = n.Znode.children;
    e_cversion = n.Znode.cversion;
    e_ephemeral = n.Znode.ephemeral_owner;
    e_czxid = n.Znode.czxid;
  }

let lookup t path =
  match Hashtbl.find_opt t.pending path with
  | Some e -> e
  | None -> (
      match Data_tree.find_opt t.tree path with
      | Some n -> entry_of_node n
      | None -> absent)

let stat_of_entry e =
  {
    Znode.version = e.e_version;
    czxid = e.e_czxid;
    ephemeral_owner = e.e_ephemeral;
    num_children = Children.cardinal e.e_children;
    data_length = String.length e.e_data;
  }

(* ------------------------------------------------------------------ *)
(* Reads                                                               *)
(* ------------------------------------------------------------------ *)

let read t path =
  let e = lookup t path in
  if e.e_exists then Ok (e.e_data, stat_of_entry e) else Error Zerror.No_node

let exists t path =
  let e = lookup t path in
  if e.e_exists then Some (stat_of_entry e) else None

let children t path =
  let e = lookup t path in
  if e.e_exists then Ok (Children.elements e.e_children)
  else Error Zerror.No_node

let children_with_data t path =
  let e = lookup t path in
  if not e.e_exists then Error Zerror.No_node
  else
    Ok
      (Children.elements e.e_children
      |> List.filter_map (fun name ->
             let child_path = Zpath.child path name in
             let ce = lookup t child_path in
             if ce.e_exists then
               Some (child_path, ce.e_data, stat_of_entry ce)
             else None))

(** All ephemeral paths owned by [session] in the speculative state (used
    to preprocess session closes). *)
let ephemerals_of_session t session =
  let base =
    Data_tree.ephemeral_paths t.tree session
    |> List.filter (fun p ->
           match Hashtbl.find_opt t.pending p with
           | Some e -> e.e_exists && e.e_ephemeral = Some session
           | None -> true)
  in
  let speculative =
    Hashtbl.fold
      (fun p e acc ->
        if e.e_exists && e.e_ephemeral = Some session && not (List.mem p base)
        then p :: acc
        else acc)
      t.pending []
  in
  List.sort compare (base @ speculative)

(* ------------------------------------------------------------------ *)
(* Mutations (validate, speculate, mint txn op)                        *)
(* ------------------------------------------------------------------ *)

let update_parent_for_child t parent_path ~add name =
  record_undo t parent_path;
  let pe = lookup t parent_path in
  let children =
    if add then Children.add name pe.e_children
    else Children.remove name pe.e_children
  in
  Hashtbl.replace t.pending parent_path
    { pe with e_children = children; e_cversion = pe.e_cversion + 1 }

(** [create_node t ~path ~data ~ephemeral_owner ~sequential] returns the
    resolved path and the transaction op. *)
let create_node t ~path ~data ~ephemeral_owner ~sequential =
  if not (Zpath.is_valid path) || Zpath.is_root path then Error Zerror.Invalid_path
  else
    match Zpath.parent path with
    | None -> Error Zerror.Invalid_path
    | Some parent_path ->
        let pe = lookup t parent_path in
        if not pe.e_exists then Error Zerror.No_node
        else if pe.e_ephemeral <> None then
          Error Zerror.No_children_for_ephemerals
        else begin
          let name =
            if sequential then
              Zpath.basename path ^ Zpath.sequence_suffix pe.e_cversion
            else Zpath.basename path
          in
          let actual_path = Zpath.child parent_path name in
          let target = lookup t actual_path in
          if target.e_exists then Error Zerror.Node_exists
          else begin
            let czxid = Data_tree.next_czxid t.tree + t.pending_creates in
            t.pending_creates <- t.pending_creates + 1;
            update_parent_for_child t parent_path ~add:true name;
            record_undo t actual_path;
            Hashtbl.replace t.pending actual_path
              {
                e_exists = true;
                e_data = data;
                e_version = 0;
                e_children = Children.empty;
                e_cversion = 0;
                e_ephemeral = ephemeral_owner;
                e_czxid = czxid;
              };
            Ok
              ( actual_path,
                Txn.Tcreate { path = actual_path; data; ephemeral_owner } )
          end
        end

let delete_node t ~path ~version =
  let e = lookup t path in
  if not e.e_exists then Error Zerror.No_node
  else if not (Children.is_empty e.e_children) then Error Zerror.Not_empty
  else
    match version with
    | Some v when v <> e.e_version -> Error Zerror.Bad_version
    | _ ->
        record_undo t path;
        Hashtbl.replace t.pending path { absent with e_czxid = e.e_czxid };
        (match Zpath.parent path with
        | Some parent_path ->
            update_parent_for_child t parent_path ~add:false
              (Zpath.basename path)
        | None -> ());
        Ok (Txn.Tdelete { path })

let set_node t ~path ~data ~expected_version =
  let e = lookup t path in
  if not e.e_exists then Error Zerror.No_node
  else
    match expected_version with
    | Some v when v <> e.e_version -> Error Zerror.Bad_version
    | _ ->
        let version = e.e_version + 1 in
        record_undo t path;
        Hashtbl.replace t.pending path { e with e_data = data; e_version = version };
        Ok (Txn.Tset { path; data; version }, version)

(** Bookkeeping when a transaction applies at the leader: keep the
    speculative czxid counter aligned with the tree's. *)
let on_applied_op t = function
  | Txn.Tcreate _ ->
      if t.pending_creates > 0 then t.pending_creates <- t.pending_creates - 1
  | Txn.Tdelete _ | Txn.Tset _ | Txn.Tsession_open _ | Txn.Tsession_close _
  | Txn.Tsession_move _ | Txn.Tblock _ | Txn.Tnotify _ | Txn.Terror
  | Txn.Tprep _ | Txn.Tdecide _ | Txn.Tresolve _ ->
      ()
