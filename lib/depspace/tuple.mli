(** Tuples and templates (the Linda-style data model DepSpace augments).

    A tuple is a sequence of typed fields; a template matches a tuple when
    arities agree and every field matches positionally.  Besides the
    classic exact/wildcard matchers there is a string-prefix matcher — the
    mechanism behind the paper's [rdAll(<o, SUB_ANY>)] sub-object
    enumeration (Table 2). *)

type field = Int of int | Str of string
type t = field list

type matcher =
  | Exact of field
  | Any
  | Prefix of string  (** matches string fields with this prefix *)

type template = matcher list

val field_equal : field -> field -> bool
val equal : t -> t -> bool
val field_matches : matcher -> field -> bool

(** [matches template tuple]. *)
val matches : template -> t -> bool

(** [exact tuple] — the template matching exactly [tuple]. *)
val exact : t -> template

(** Modelled wire sizes. *)

val field_size : field -> int
val size : t -> int
val matcher_size : matcher -> int
val template_size : template -> int

(** Total orders (deterministic tie-breaking). *)

val field_compare : field -> field -> int
val compare : t -> t -> int

val pp_field : Format.formatter -> field -> unit
val pp : Format.formatter -> t -> unit
val pp_matcher : Format.formatter -> matcher -> unit
