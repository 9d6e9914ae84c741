(** White-listed builtin functions available to extensions (§4.1.1).

    Basic math, boolean, string, list, and object-record helpers, each
    tagged with its determinism so the verifier can reject
    nondeterministic calls under active replication.  The interpreter
    charges fuel proportional to the size of list arguments, so no builtin
    can smuggle an unbounded scan past the step budget. *)

type outcome = (Value.t, string) result

type t = {
  arity : int;
  deterministic : bool;
  fn : Value.t list -> outcome;
}

(** The white list itself. *)
val table : (string * t) list

val find : string -> t option
val names : string list
