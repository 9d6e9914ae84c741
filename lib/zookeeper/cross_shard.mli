(** Cross-shard atomic multi-writes (§6j): presumed-abort two-phase commit
    whose prepare, decision and resolve records ride each shard's own
    replicated log.

    One instance lives beside each {!Server} replica and owns all 2PC
    state: the replicated tables (locks, prepared writes, decisions, the
    resolve audit) and the leader-volatile ones (open rounds, speculative
    locks, proposal dedup).  The server calls in from its preprocessor,
    [apply_op], snapshots and role changes; this module calls back only
    through {!env}. *)

open Edc_simnet
open Edc_replication

(** What the server lends: its simulator, committed tree, speculative
    view, role, Zab epoch (names transactions), proposer, and a direct
    reply to one of its clients. *)
type env = {
  sim : Sim.t;
  tree : Data_tree.t;
  spec : Spec_view.t;
  is_leader : unit -> bool;
  leader_ready : unit -> bool;
  epoch : unit -> int;
  propose : Txn.t -> unit;
  reply : session:int -> xid:int -> Protocol.result -> unit;
}

type t

val create : env -> t

(** Plug the replica into a sharded deployment: its shard id, the path
    router, and a sender on the inter-shard plane ([send dst frame]
    reaches shard [dst]'s current leader).  Unplugged, every multi is
    local. *)
val set_sharding :
  t -> shard_id:int -> route:(string -> int) -> send:(int -> Two_pc.frame -> unit) -> unit

(** Deliver an inter-shard frame; anyone but a ready leader drops it and
    lets the sender's retry / in-doubt inquiry find the new leader. *)
val handle_shard_frame : t -> Two_pc.frame -> unit

(** {2 Server call points} *)

(** A path is write-blocked while a prepared transaction holds it or its
    parent: the parked write applies unconditionally at resolve. *)
val write_locked : t -> string -> bool

(** A [Multi] at the leader: one ordinary transaction when it touches
    only this shard, otherwise a new coordinator round. *)
val preprocess_multi :
  t -> origin:int -> session:int -> xid:int -> Two_pc.wop list -> unit

(** Apply a [Tprep], [Tdecide] or [Tresolve] record (other ops are
    ignored).  Returns the writes a committing [Tresolve] releases; the
    server mints each with {!resolved_op} just before applying it through
    its own [apply_op], so watches fire. *)
val apply : t -> Txn.op -> Two_pc.wop list

val resolved_op : t -> Two_pc.wop -> Txn.op

(** Drop the leader-volatile state (open rounds die with their leader). *)
val on_role_change : t -> unit

(** {2 Snapshot sections}

    The replicated tables as four sibling elements of the server's blob
    (locks, prepared, decisions, audit), sorted so equal states yield
    identical bytes. *)

type image

val capture : t -> image
val write_image : Edc_wire.Wire.Writer.t -> image -> unit
val read_image : Edc_wire.Wire.Reader.t -> image

(** Replace the tables and re-arm the in-doubt probes. *)
val install : t -> image -> unit

(** {2 Observations} *)

(** Resolved outcomes, oldest first: the atomicity checker's input. *)
val txn_audit : t -> (string * bool) list

(** The decision logged here for [txid], if any. *)
val decided : t -> string -> bool option

(** In-doubt transactions (txid, coordinator shard). *)
val prepared_txns : t -> (string * int) list

(** Write-locked paths (path, txid). *)
val locked_paths : t -> (string * string) list
