(** Growable vector (OCaml 5.1 predates [Dynarray]); used for replication
    logs: append-heavy, random read, truncation on log repair. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> 'a -> unit
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val last_opt : 'a t -> 'a option

(** [truncate v n] keeps the first [n] elements; the dropped ones are no
    longer reachable from [v], though its capacity is kept. *)
val truncate : 'a t -> int -> unit

(** [clear v] is [truncate v 0]. *)
val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t

(** [sub v pos len] copies a slice to a list. *)
val sub : 'a t -> int -> int -> 'a list

(** [replace_from v pos xs] overwrites from [pos] with [xs], truncating
    anything after (log repair after leader change). *)
val replace_from : 'a t -> int -> 'a list -> unit
