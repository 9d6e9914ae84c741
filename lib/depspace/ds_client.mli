(** DepSpace client library.

    Multicasts every request to all replicas (so per-client data volume is
    ~[3f + 1]× the request size — the effect in Figs. 8/10) and votes on
    replies: [f + 1] matching for ordered operations, [2f + 1] for fast
    unordered reads (falling back to ordered execution on divergence). *)

open Edc_simnet
module P = Ds_protocol

type config = {
  request_timeout : Sim_time.t;  (** for non-blocking operations *)
}

val default_config : config

type t

val create :
  ?config:config ->
  sim:Sim.t ->
  net:P.wire Net.t ->
  addr:int ->
  replicas:int list ->
  f:int ->
  unit ->
  t

val addr : t -> int
val requests_sent : t -> int
val sim : t -> Sim.t

(** [request t op] — raw request/vote cycle (fiber-blocking).  Blocking
    space operations ([Rd]/[In_]) wait indefinitely; others time out. *)
val request : ?timeout:Sim_time.t -> ?fast_allowed:bool -> t -> P.op -> P.result

(** Convenience wrappers (Table 2, DepSpace column). *)

val out : t -> ?lease:Sim_time.t -> Tuple.t -> (unit, string) result
val rdp : t -> Tuple.template -> (Tuple.t option, string) result
val inp : t -> Tuple.template -> (Tuple.t option, string) result

(** Blocking read. *)
val rd : ?timeout:Sim_time.t -> t -> Tuple.template -> (Tuple.t, string) result

(** Blocking take. *)
val in_ : ?timeout:Sim_time.t -> t -> Tuple.template -> (Tuple.t, string) result

val cas : t -> Tuple.template -> Tuple.t -> (bool, string) result
val replace : t -> Tuple.template -> Tuple.t -> (bool, string) result
val rd_all : t -> Tuple.template -> (Tuple.t list, string) result

(** Ordered no-op: drives deterministic lease expiry. *)
val noop : t -> (unit, string) result

val renew : t -> Tuple.template -> Sim_time.t -> (int, string) result

(** [ensure_renewing t template lease] starts periodic renewal (idempotent
    per template; runs until {!close}). *)
val ensure_renewing : t -> Tuple.template -> Sim_time.t -> unit

(** [monitor t tuple ~lease] — Table 2's [monitor(x, o)], DepSpace half:
    a lease tuple kept alive by renewals; if this client dies it expires,
    and its deletion doubles as the failure notification. *)
val monitor : t -> Tuple.t -> lease:Sim_time.t -> (unit, string) result

(** Stops renewals; the service forgets us when the leases lapse. *)
val close : t -> unit
