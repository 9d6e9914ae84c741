(** Two-phase commit over independent replication groups (DESIGN.md §6j).

    The cross-shard atomic-commit protocol is layered {e on top of} the
    per-shard Zab groups: every protocol step that must survive a leader
    change travels through the participant shard's own replicated log
    (prepare, resolve) or the coordinator shard's log (the commit
    decision), so 2PC state is exactly as durable as the shards
    themselves.  This module holds the pieces shared by all deployments:
    the write-op payload a prepare carries, the inter-shard frames, and
    their canonical wire codec.

    Protocol shape (presumed abort):

    - the coordinator (leader of the lowest-numbered participant shard)
      sends [Prepare] to every participant's leader;
    - a participant validates + locks through its own log and answers
      [Prepare_ack];
    - all yes-votes ⇒ the coordinator logs the commit decision in its own
      shard's log — the commit point — and pushes [Commit]; any no-vote
      or a coordinator timeout ⇒ [Abort] (aborts need no log record);
    - a prepared participant that hears nothing asks the coordinator
      shard with [Status]; the answer is derived from the coordinator
      shard's {e replicated} decision table, so it survives coordinator
      leader kills: decision logged ⇒ that decision; no decision ⇒ the
      inquiry itself aborts the transaction (no later commit is possible
      because only the enquired leader's volatile round could have
      committed it, and it now never will). *)

open Edc_wire

(** One write of a cross-shard transaction, in the owning shard's
    namespace.  Deliberately smaller than the full client op set:
    cross-shard transactions move plain data nodes (the sharded queue's
    element hand-off); ephemerals and sequentials stay single-shard. *)
type wop =
  | Wcreate of { path : string; data : string }
  | Wset of { path : string; data : string }
  | Wdelete of { path : string }

let wop_path = function
  | Wcreate { path; _ } | Wset { path; _ } | Wdelete { path } -> path

let wop_size = function
  | Wcreate { path; data } | Wset { path; data } ->
      16 + String.length path + String.length data
  | Wdelete { path } -> 12 + String.length path

(** Inter-shard frames, leader to leader.  [txid] strings are minted by
    the coordinator ("shard.epoch.counter") and globally unique. *)
type frame =
  | Prepare of {
      txid : string;
      coord : int;  (** coordinator shard id (target of [Status]) *)
      participants : int list;
      ops : wop list;  (** this participant's slice of the transaction *)
    }
  | Prepare_ack of { txid : string; shard : int; ok : bool }
  | Commit of { txid : string }
  | Abort of { txid : string }
  | Status of { txid : string; from_shard : int }
      (** in-doubt participant asks the coordinator shard for the outcome *)


let frame_size = function
  | Prepare { txid; participants; ops; _ } ->
      24 + String.length txid
      + (4 * List.length participants)
      + List.fold_left (fun acc o -> acc + wop_size o) 0 ops
  | Prepare_ack { txid; _ } -> 16 + String.length txid
  | Commit { txid } | Abort { txid } -> 12 + String.length txid
  | Status { txid; _ } -> 16 + String.length txid

(* ------------------------------------------------------------------ *)
(* Canonical wire codec (append-only tag registries)                   *)
(*   wop:   0 Wcreate, 1 Wset, 2 Wdelete                               *)
(*   frame: 0 Prepare, 1 Prepare_ack, 2 Commit, 3 Abort, 4 Status     *)
(* The deployment's streaming message writers (Multi, 2PC txn ops,     *)
(* snapshot prepared tables) compose with the wop codec.               *)
(* ------------------------------------------------------------------ *)

let write_wop w op =
  let module W = Wire.Writer in
  W.begin_list w;
  (match op with
  | Wcreate { path; data } ->
      W.int w 0;
      W.str w path;
      W.str w data
  | Wset { path; data } ->
      W.int w 1;
      W.str w path;
      W.str w data
  | Wdelete { path } ->
      W.int w 2;
      W.str w path);
  W.end_list w

let read_wop r =
  let module R = Wire.Reader in
  R.begin_list r;
  let op =
    match R.int r with
    | 0 ->
        let path = R.str r in
        let data = R.str r in
        Wcreate { path; data }
    | 1 ->
        let path = R.str r in
        let data = R.str r in
        Wset { path; data }
    | 2 ->
        let path = R.str r in
        Wdelete { path }
    | t -> R.error r (Printf.sprintf "bad 2pc wop tag %d" t)
  in
  R.end_list r;
  op

let write_frame w frame =
  let module W = Wire.Writer in
  W.begin_list w;
  (match frame with
  | Prepare { txid; coord; participants; ops } ->
      W.int w 0;
      W.str w txid;
      W.int w coord;
      W.list w W.int participants;
      W.list w write_wop ops
  | Prepare_ack { txid; shard; ok } ->
      W.int w 1;
      W.str w txid;
      W.int w shard;
      W.bool w ok
  | Commit { txid } ->
      W.int w 2;
      W.str w txid
  | Abort { txid } ->
      W.int w 3;
      W.str w txid
  | Status { txid; from_shard } ->
      W.int w 4;
      W.str w txid;
      W.int w from_shard);
  W.end_list w

let read_frame r =
  let module R = Wire.Reader in
  R.begin_list r;
  let frame =
    match R.int r with
    | 0 ->
        let txid = R.str r in
        let coord = R.int r in
        let participants = R.list r R.int in
        let ops = R.list r read_wop in
        Prepare { txid; coord; participants; ops }
    | 1 ->
        let txid = R.str r in
        let shard = R.int r in
        let ok = R.bool r in
        Prepare_ack { txid; shard; ok }
    | 2 ->
        let txid = R.str r in
        Commit { txid }
    | 3 ->
        let txid = R.str r in
        Abort { txid }
    | 4 ->
        let txid = R.str r in
        let from_shard = R.int r in
        Status { txid; from_shard }
    | t -> R.error r (Printf.sprintf "bad 2pc frame tag %d" t)
  in
  R.end_list r;
  frame

let pp_wop ppf = function
  | Wcreate { path; _ } -> Fmt.pf ppf "create %s" path
  | Wset { path; _ } -> Fmt.pf ppf "set %s" path
  | Wdelete { path } -> Fmt.pf ppf "delete %s" path

let pp_frame ppf = function
  | Prepare { txid; coord; participants; ops } ->
      Fmt.pf ppf "prepare %s coord=%d parts=[%a] ops=[%a]" txid coord
        Fmt.(list ~sep:comma int)
        participants
        Fmt.(list ~sep:comma pp_wop)
        ops
  | Prepare_ack { txid; shard; ok } ->
      Fmt.pf ppf "prepare-ack %s shard=%d %s" txid shard
        (if ok then "yes" else "no")
  | Commit { txid } -> Fmt.pf ppf "commit %s" txid
  | Abort { txid } -> Fmt.pf ppf "abort %s" txid
  | Status { txid; from_shard } ->
      Fmt.pf ppf "status? %s from=%d" txid from_shard
