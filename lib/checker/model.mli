(** Sequential specifications of the checked recipes.

    A model is a deterministic-ish state machine: [step] returns every
    acceptable (response, next-state) pair for an operation in a state —
    an empty list means no linearization point for that operation exists
    there.  States use structural equality/hashing so the WGL search can
    memoize visited configurations.

    Versions are deliberately NOT part of any model: they are
    backend-specific metadata (zxid-derived on EZK, timestamp-derived on
    EDS), so [R_obj] responses are matched on data only, and counter CAS
    is specified against the expected {e data}, which identifies the state
    uniquely because a counter's value is strictly increasing (no ABA). *)

type state =
  | S_counter of int
  | S_queue of (string * string) list  (** (eid, data), head first *)
  | S_mutex of int option  (** holding client *)

type t = {
  name : string;
  init : state;
  step : state -> client:int -> History.op -> (History.response * state) list;
  matches :
    observed:History.response -> candidate:History.response -> bool;
      (** does the recorded response match one the model allows? *)
  droppable_open :
    (History.op -> required:(History.op * History.response) list -> bool)
    option;
      (** [droppable_open op ~required = true] promises that an optional,
          unconstrained instance of [op] can be removed from the search
          without changing the verdict, given the constrained
          (op, observed-response) pairs of the same history prefix.
          Sound only when linearizing such an op can never {e enable}
          another op's linearization — e.g. an ambiguous queue add whose
          element no constrained op ever observed.  [None] = never drop. *)
}

val counter : t
(** [Incr] / [Ctr_read] / [Ctr_cas]; initial value 0 (the recipes'
    [setup] creates the object with "0" before recording starts). *)

val queue : t
(** FIFO in linearization order: [Enq] appends, [Deq] pops the head (or
    observes empty), [Deq_elem eid] succeeds iff [eid] is the head —
    sound for the traditional recipe because element order is fixed by
    unique creation stamps, so a linearizable store only ever lets the
    FIFO walk delete the current head. *)

val mutex : t
(** [Acquire] succeeds only when free; [Release] only by the holder.
    Models both the lock and leader-election recipes (leadership = the
    lock). *)

val for_object : string -> t option
(** Model for a {!History.split} object class ([None] for "barrier",
    which is a real-time property, not an atomic object — see
    {!check_gate}). *)

val check_gate :
  threshold:int -> History.entry list -> (unit, string) result
(** The barrier property: no [Enter] on a barrier may return before the
    [threshold]-th [Enter] on the same barrier has been invoked. *)
