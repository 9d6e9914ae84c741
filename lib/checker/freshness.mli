(** Stale-read detector (§6i).

    Complements the WGL linearizability search with two targeted
    read-freshness checks over counter-style objects, where every
    stamp-bearing response ([R_int], or [R_obj] whose data parses as an
    integer) observes a strictly increasing value, so "older" is
    well-defined without searching linearization orders:

    - {!check_session} — sequential-consistency freshness: within one
      client's session, a read must never return a value older than a
      response that same client already observed (monotone reads +
      read-your-writes).  This is the guarantee observers and cached
      sessions provide.
    - {!check_realtime} — lease freshness: a read invoked after {e any}
      operation completed (in real time) with stamp [v] must return at
      least [v].  Linearizable lease-served reads must pass; a leader
      serving reads past its lease expiry while a new leader commits
      writes is convicted here.

    Both checks are linear sweeps, not searches: they convict with a
    concrete witness pair and never time out, which makes them suitable
    as always-on gates in chaos runs (the full WGL search stays the
    ground truth for linearizability proper). *)

type violation = {
  v_client : int;  (** client that performed the stale read *)
  v_op : int;  (** history id of the convicted read *)
  v_at : Edc_simnet.Sim_time.t;  (** return time of the stale read *)
  v_observed : int;  (** stamp the read returned *)
  v_expected : int;  (** stamp already observed before the read *)
  v_witness : int;  (** history id of the response establishing [v_expected] *)
}

(** Per-client monotonicity over completed stamp-bearing entries, in
    completion order.  Empty list = no stale read. *)
val check_session : History.entry list -> violation list

(** Real-time freshness: for each completed read, the freshness bound is
    the maximum stamp of any entry (any client) that returned strictly
    before the read was invoked.  Concurrent operations impose no bound.
    Empty list = no stale read. *)
val check_realtime : History.entry list -> violation list

val pp_violation : Format.formatter -> violation -> unit
