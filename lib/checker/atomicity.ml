(** Cross-shard atomicity checker (§6j).

    The sharded deployment's safety contract: an atomic multi-write is
    resolved the same way — committed everywhere or aborted everywhere —
    on every replica of every participant shard, exactly once per
    replica; and after the system quiesces nothing is left in doubt and
    no path is still write-locked.

    The checker is deliberately abstract: it consumes the per-replica
    audit streams ([Cross_shard.txn_audit]) plus residual prepared/lock dumps
    as plain data, so it has no dependency on the sharding subsystem —
    the same inversion the WGL checker uses. *)

type violation =
  | Divergent of {
      txid : string;
      commits : (int * int) list;  (** (shard, replica) that committed *)
      aborts : (int * int) list;  (** (shard, replica) that aborted *)
    }
      (** the fatal one: a transaction committed on one shard and aborted
          on another *)
  | Duplicate_resolution of { txid : string; shard : int; replica : int }
      (** a replica resolved the same transaction twice *)
  | Stuck_in_doubt of { txid : string; shard : int; replica : int }
      (** still prepared after quiescence: outcome never arrived *)
  | Residual_lock of {
      path : string;
      txid : string;
      shard : int;
      replica : int;
    }  (** a path still write-locked after quiescence *)

let pp_violation ppf = function
  | Divergent { txid; commits; aborts } ->
      Fmt.pf ppf "txn %s committed on %a but aborted on %a" txid
        Fmt.(list ~sep:comma (pair ~sep:(any ".") int int))
        commits
        Fmt.(list ~sep:comma (pair ~sep:(any ".") int int))
        aborts
  | Duplicate_resolution { txid; shard; replica } ->
      Fmt.pf ppf "txn %s resolved twice on replica %d.%d" txid shard replica
  | Stuck_in_doubt { txid; shard; replica } ->
      Fmt.pf ppf "txn %s still in doubt on replica %d.%d" txid shard replica
  | Residual_lock { path; txid; shard; replica } ->
      Fmt.pf ppf "path %s still locked by %s on replica %d.%d" path txid
        shard replica

(** [check ~audits ()] — [audits] is one [(shard, replica, outcomes)] per
    replica, [outcomes] oldest-first [(txid, committed)].  [prepared] and
    [locks] are residual-state dumps taken after quiescence; pass them to
    additionally require that every transaction resolved and every lock
    was released. *)
let check ~audits ?(prepared = []) ?(locks = []) () =
  let outcomes : (string, (int * int) list ref * (int * int) list ref) Hashtbl.t
      =
    Hashtbl.create 64
  in
  let violations = ref [] in
  List.iter
    (fun (shard, replica, outs) ->
      let seen = Hashtbl.create 16 in
      List.iter
        (fun (txid, committed) ->
          if Hashtbl.mem seen txid then
            violations :=
              Duplicate_resolution { txid; shard; replica } :: !violations
          else Hashtbl.replace seen txid ();
          let commits, aborts =
            match Hashtbl.find_opt outcomes txid with
            | Some cell -> cell
            | None ->
                let cell = (ref [], ref []) in
                Hashtbl.replace outcomes txid cell;
                cell
          in
          let side = if committed then commits else aborts in
          side := (shard, replica) :: !side)
        outs)
    audits;
  Hashtbl.iter
    (fun txid (commits, aborts) ->
      if !commits <> [] && !aborts <> [] then
        violations :=
          Divergent
            { txid; commits = List.rev !commits; aborts = List.rev !aborts }
          :: !violations)
    outcomes;
  List.iter
    (fun (shard, replica, txid, _coord) ->
      violations := Stuck_in_doubt { txid; shard; replica } :: !violations)
    prepared;
  List.iter
    (fun (shard, replica, path, txid) ->
      violations := Residual_lock { path; txid; shard; replica } :: !violations)
    locks;
  List.rev !violations

(** Count of distinct transactions observed resolved (for reports). *)
let resolved_count ~audits =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (_, _, outs) ->
      List.iter (fun (txid, _) -> Hashtbl.replace seen txid ()) outs)
    audits;
  Hashtbl.length seen
