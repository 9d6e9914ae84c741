(** The replicated hierarchical data store (committed state).

    The state machine that transactions are applied to, in commit order,
    on every replica.  Apply functions are unconditional (validation
    happened at the leader's {!Spec_view}); violated preconditions are
    counted as anomalies and skipped rather than corrupting the tree. *)

type t

val create : unit -> t

val find_opt : t -> string -> Znode.t option
val mem : t -> string -> bool
val node_count : t -> int
val anomalies : t -> int

(** Next creation id (deterministic across replicas). *)
val next_czxid : t -> int

(** Queries (served from committed state). *)

val get_data : t -> string -> (string * Znode.stat, Zerror.t) result
val exists : t -> string -> Znode.stat option

(** Children names, sorted. *)
val get_children : t -> string -> (string list, Zerror.t) result

(** Children with data and stat — the [subObjects] scan extensions get in
    one step through the state proxy. *)
val children_with_data :
  t -> string -> ((string * string * Znode.stat) list, Zerror.t) result

(** Ephemeral paths owned by a session, sorted. *)
val ephemeral_paths : t -> int -> string list

(** Child version of a node ([0] if missing): mints sequential names. *)
val cversion : t -> string -> int

(** Transaction application. *)

val apply_create :
  t -> path:string -> data:string -> ephemeral_owner:int option -> unit

val apply_delete : t -> path:string -> unit
val apply_set : t -> path:string -> data:string -> version:int -> unit

(** {2 Snapshot images (state transfer, §3.8)}

    [export] is a generation-stamped copy-on-write capture: it returns a
    handle in O(1), and the apply path preserves a node's pre-image into
    every active handle only on the first post-capture mutation of that
    node.  A handle is therefore a stable value — it survives later tree
    mutations — without the deep copy the old export paid on every
    snapshot.  Serialization goes through {!materialize}, which renders
    the handle as a {!portable} image with nodes sorted by path, so two
    replicas in the same state produce byte-identical blobs. *)

(** Copy-on-write snapshot handle; never serialized, never shared across
    replicas. *)
type image

(** Serializable deterministic image: nodes sorted by path, deep-copied,
    with replica-local COW stamps zeroed. *)
type portable = { img_nodes : (string * Znode.t) list; img_next_czxid : int }

(** O(1) capture.  {!release} the handle once it is superseded, so the
    apply path stops preserving pre-images for it. *)
val export : t -> image

(** Drop a handle: its overlay is freed and the apply path forgets it.
    Materializing a released handle is a programming error (it yields an
    empty image). *)
val release : image -> unit

(** Render the handle as a portable image (pre-images from the overlay,
    unchanged nodes from the live tree, sorted by path). *)
val materialize : image -> portable

(** The pre-COW deep-copy export (sorted): the bench baseline and the
    oracle of the COW differential test. *)
val export_eager : t -> portable

(** [import t image] replaces the tree's contents (ephemeral index rebuilt
    from the nodes).  Nodes are copied in, so the image stays reusable —
    importing the same image twice yields two independent trees.  Handles
    still capturing [t] are detached (completed) first, so they keep
    reading the pre-import state. *)
val import : t -> image -> unit

val import_portable : t -> portable -> unit

(** COW bookkeeping (benchmarks and tests). *)

(** Nodes preserved on first touch since the tree was created. *)
val cow_copies : t -> int

val active_images : t -> int
