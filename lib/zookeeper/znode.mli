(** Data nodes (znodes) and their client-visible metadata. *)

module String_set : Set.S with type elt = string

(** A node's child names, as a set of strings.  Names decoded from an
    image, which arrive in ascending order, are kept as they came until
    the first {!add} or {!remove}, so a decoded node is not re-sorted. *)
module Children : sig
  type t

  val empty : t

  (** [of_ascending names] — [names] must be strictly ascending. *)
  val of_ascending : string list -> t

  val add : string -> t -> t
  val remove : string -> t -> t
  val is_empty : t -> bool
  val cardinal : t -> int

  (** In ascending order, like {!iter}. *)
  val elements : t -> string list

  val iter : (string -> unit) -> t -> unit
end

(** Node metadata returned to clients (a subset of ZooKeeper's Stat). *)
type stat = {
  version : int;  (** data version, bumped by each set *)
  czxid : int;  (** global creation order; recipes sort by it *)
  ephemeral_owner : int option;  (** owning session for ephemeral nodes *)
  num_children : int;
  data_length : int;
}

type t = {
  mutable data : string;
  mutable version : int;
  mutable children : Children.t;
  mutable cversion : int;
      (** child version, bumped by child creates/deletes; doubles as the
          sequential-name counter, so it survives leader changes *)
  czxid : int;
  ephemeral_owner : int option;
  mutable stamp : int;
      (** copy-on-write generation: the tree's generation when the node was
          created or last mutated (see {!Data_tree.export}).  Replica-local
          bookkeeping, zeroed in serialized images. *)
}

val create : data:string -> czxid:int -> ephemeral_owner:int option -> t

(** Fresh record with the same contents, sharing no mutable state. *)
val copy : t -> t
val stat : t -> stat
val pp_stat : Format.formatter -> stat -> unit
