(** The leader's speculative view of the tree (outstanding change records).

    ZooKeeper's preprocessor validates every request against the state the
    tree *will* have once all already-proposed transactions commit —
    otherwise concurrent conditional updates could all pass validation and
    the compare-and-swap semantics (and the paper's contention results)
    would evaporate.  Mutations validate against and update the
    speculation while minting the idempotent {!Txn.op} to replicate;
    extension reads come through here too, giving extensions
    read-your-writes atomicity within one invocation.

    [begin_txn]/[commit_txn]/[rollback_txn] bracket one sandbox run: an
    aborted extension leaves the speculation exactly as it found it
    (§4.1.2). *)

type t

val create : Data_tree.t -> t

(** Drop all speculation (leadership change, or quiescence GC). *)
val reset : t -> unit

(** Extension transactionality. *)

val begin_txn : t -> unit
val commit_txn : t -> unit
val rollback_txn : t -> unit

(** Reads (committed state overlaid with pending changes). *)

val read : t -> string -> (string * Znode.stat, Zerror.t) result
val exists : t -> string -> Znode.stat option
val children : t -> string -> (string list, Zerror.t) result
val children_with_data :
  t -> string -> ((string * string * Znode.stat) list, Zerror.t) result

(** All ephemeral paths owned by [session] in the speculative state (used
    to preprocess session closes). *)
val ephemerals_of_session : t -> int -> string list

(** Mutations: validate, speculate, mint the transaction op. *)

val create_node :
  t ->
  path:string ->
  data:string ->
  ephemeral_owner:int option ->
  sequential:bool ->
  (string * Txn.op, Zerror.t) result

val delete_node : t -> path:string -> version:int option -> (Txn.op, Zerror.t) result

val set_node :
  t -> path:string -> data:string -> expected_version:int option ->
  (Txn.op * int, Zerror.t) result

(** Bookkeeping when a transaction applies at the leader (keeps the
    speculative creation-id counter aligned with the tree's). *)
val on_applied_op : t -> Txn.op -> unit
