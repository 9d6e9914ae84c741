(** Concurrent operation histories, in the style of Wing & Gong and the
    Jepsen/Knossos tradition: every client operation is an [Invoke] event
    followed (possibly much later, possibly never) by a conclusion —
    [Return] with a response, [Fail] when the operation definitely had no
    effect, or [Info] when the outcome is unknown (the session layer's
    "maybe applied").  Timestamps are virtual ({!Edc_simnet.Sim_time}), so
    recorded histories are deterministic per simulator seed. *)

open Edc_simnet

(** Abstract operations of the checked recipes.  The checker works at the
    recipe level for extension-served operations ([Incr], [Deq]) and at
    the store level for traditional ones ([Ctr_cas], [Deq_elem]). *)
type op =
  | Incr  (** extension-served counter increment; returns the new value *)
  | Ctr_read  (** read of the counter object *)
  | Ctr_cas of { expected_data : string; data : string }
      (** conditional update against the previously read counter value *)
  | Enq of { eid : string; data : string }  (** create of a queue element *)
  | Deq  (** extension-served pop of the FIFO head *)
  | Deq_elem of string
      (** traditional delete of one named queue element (FIFO walk) *)
  | Q_read  (** snapshot of all queue elements *)
  | Acquire  (** lock / leadership granted to the caller *)
  | Release
  | Enter of string  (** barrier entry on the given barrier object *)

type response =
  | R_unit
  | R_int of int
  | R_bool of bool
  | R_obj of { data : string; version : int }
  | R_opt of string option
  | R_multiset of string list  (** order-insensitive; kept sorted *)
  | R_other of string  (** unmodelled payload (always a spec violation) *)

type event =
  | Invoke of { id : int; client : int; at : Sim_time.t; op : op }
  | Return of { id : int; at : Sim_time.t; response : response }
  | Fail of { id : int; at : Sim_time.t; error : string }
      (** the operation definitely did not take effect *)
  | Info of { id : int; at : Sim_time.t; error : string }
      (** ambiguous conclusion: the effect may or may not have happened *)

(** How one operation concluded. *)
type outcome =
  | Done of response
  | Failed of string
  | Open of string option
      (** never concluded, or concluded ambiguously with the given error:
          the operation may take effect at any later point, or never *)

(** One operation of the history, as the checker consumes it. *)
type entry = {
  id : int;
  client : int;
  op : op;
  inv : Sim_time.t;
  ret : Sim_time.t option;  (** [None] for [Failed]/[Open] entries *)
  outcome : outcome;
}

type t
(** An append-only recorder; all stamps come from the simulator clock. *)

val create : sim:Sim.t -> unit -> t

val invoke : t -> client:int -> op -> int
(** Returns the operation id to conclude with {!ok}/{!fail}/{!info}. *)

val ok : t -> int -> response -> unit
val fail : t -> int -> string -> unit
val info : t -> int -> string -> unit

val events : t -> event list
(** Chronological. *)

val entries : t -> entry list
(** One entry per invoked operation, sorted by invocation time (ties by
    id, i.e. by invocation order). *)

val n_events : t -> int

(** Linearizability is compositional: a history is linearizable iff its
    per-object sub-histories are (Herlihy & Wing).  [object_of_op]
    classifies operations by the object they touch and {!split} partitions
    a history accordingly. *)
val object_of_op : op -> string

val split : entry list -> (string * entry list) list
(** Objects in reverse first-appearance order; entry order preserved. *)

val pp_op : Format.formatter -> op -> unit
val pp_response : Format.formatter -> response -> unit
val pp_entry : Format.formatter -> entry -> unit
val pp_event : Format.formatter -> event -> unit
