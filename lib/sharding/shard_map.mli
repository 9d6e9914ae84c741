(** Versioned shard map: the deployment's deterministic path → shard
    function (§6j).

    Paths are partitioned by first component — the coarsest unit that
    keeps subtree-shaped watch patterns single-shard — hashed stably over
    [n_shards], with explicit placement rules taking precedence.  The map
    is plain data built once per deployment and shared in-process, so
    every router (client sessions, server preprocessors) computes the
    same placement. *)

type rule = { prefix : string; shard : int }
type t

(** [v n_shards] — hash placement over [n_shards] groups; [rules] pin
    whole subtrees to named shards (first match wins).  Raises
    [Invalid_argument] when [n_shards <= 0] or a rule's shard falls
    outside [0, n_shards). *)
val v : ?version:int -> ?rules:rule list -> int -> t

val version : t -> int
val n_shards : t -> int
val rules : t -> rule list

(** [first_component "/app/x/y"] is ["/app"] — the unit of placement. *)
val first_component : string -> string

val route : t -> string -> int

(** Shards a subscription pattern can reach: [`Shard s] when every
    possible match lives on [s], [`Cross shards] otherwise. *)
val shards_of_pattern :
  t -> Edc_core.Subscription.oid_pattern -> [ `Shard of int | `Cross of int list ]

val pp : Format.formatter -> t -> unit
