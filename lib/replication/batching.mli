(** Group-commit batcher shared by the Zab and PBFT substrates.

    Accumulates items and hands them to [flush] in arrival order as one
    batch when the batch is full or the oldest item has waited [max_delay]
    — but never while a previous flush is still paying [sync_cost] (the
    serial per-batch agreement cost: the leader's transaction-log fsync,
    the BFT proposer's per-instance work).  Under load, items arriving
    during a sync ride the next batch, which is how group commit
    self-clocks without a tuned delay. *)

open Edc_simnet

type config = {
  max_batch : int;  (** maximum items per proposal (clamped to >= 1) *)
  max_delay : Sim_time.t;  (** patience of the oldest pending item *)
  sync_cost : Sim_time.t;  (** serial per-batch agreement cost *)
}

(** Zero delay and sync cost, at most 64 items per proposal.  On a
    simulated run every [add] flushes a singleton at once: behaviourally
    identical to unbatched replication.  On a turn-driven sim (the TCP
    transport) everything added during one turn is proposed when the turn
    ends, 64 items per proposal, oldest first — group commit with no
    timer, so a lone request still leaves in a batch of one. *)
val per_turn : config

val group_commit :
  ?max_batch:int -> ?max_delay:Sim_time.t -> ?sync_cost:Sim_time.t -> unit ->
  config

val pp : Format.formatter -> config -> unit

type 'a t

(** [create ~sim ~config ~flush] — [flush] receives each batch oldest
    first.  When both [sync_cost] and the due-wait are zero it is called
    from the {!Edc_simnet.Sim.defer}red check that [add] arms: at once on
    a simulated run, at {!Edc_simnet.Sim.end_turn} on a turn-driven sim.
    Otherwise it is called from a scheduled event. *)
val create : sim:Sim.t -> config:config -> flush:('a list -> unit) -> 'a t

(** [add t x] enqueues an item and, unless one is already queued, defers
    a check that flushes every due batch. *)
val add : 'a t -> 'a -> unit

(** Items currently waiting (not yet handed to [flush]). *)
val pending : 'a t -> int

(** [reset t] drops pending items and invalidates armed timers, the
    deferred end-of-turn check and in-flight syncs (leadership loss /
    view change / crash). *)
val reset : 'a t -> unit
