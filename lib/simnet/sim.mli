(** Discrete-event simulation engine.

    One virtual clock and one event heap drive the whole repository —
    network delivery, server CPU, client think time, protocol timers —
    which is what makes entire-cluster runs bit-for-bit reproducible from
    a seed. *)

type t

(** [create ~seed ()] — a fresh simulation; equal seeds give equal runs. *)
val create : ?seed:int -> unit -> t

(** Current virtual time. *)
val now : t -> Sim_time.t

(** The root deterministic generator; split it per component. *)
val rng : t -> Rng.t

(** Events processed so far (runaway guard / test observability). *)
val executed_events : t -> int

(** [schedule t ~after f] runs [f] at [now + after] (clamped to now). *)
val schedule : t -> after:Sim_time.t -> (unit -> unit) -> unit

(** A scheduled event that can be withdrawn before it fires. *)
type timer

(** [timer t ~after f] is {!schedule} returning a handle for {!cancel}.
    The heap holds the closure [f] until it fires or is cancelled,
    whichever comes first; a timeout that can be beaten should be
    cancelled when it is, so the heap holds only live events. *)
val timer : t -> after:Sim_time.t -> (unit -> unit) -> timer

(** [cancel t timer] removes [timer] in O(log n) and drops its closure; a
    no-op once it has fired or been cancelled.  Cancelling consumes no
    sequence number, so every surviving event fires in the same order as
    if the cancelled one had stayed queued as a no-op. *)
val cancel : t -> timer -> unit

(** [schedule_at t ~at f] runs [f] at absolute time [at] (clamped to now). *)
val schedule_at : t -> at:Sim_time.t -> (unit -> unit) -> unit

(** {2 Turns}

    An outer loop that interleaves the simulator with outside work — the TCP
    transport's poll — calls the span between two of its flushes a
    {e turn}.  Work deferred to the end of a turn sees everything the
    turn received, which is what lets the group-commit batcher propose a
    whole turn's arrivals at once.  A sim nobody marks stays untouched:
    every {!defer} runs at once, so simulated runs are unchanged. *)

(** [set_turn_driven t] — an outer loop will call {!end_turn}; from
    now on {!defer} queues instead of running. *)
val set_turn_driven : t -> unit

(** [defer t f] runs [f] at the end of the current turn, after all work
    deferred before it; on a sim nobody marked it runs [f] at once.
    Deferred work is not an event: it is not counted by {!pending} or
    {!executed_events}. *)
val defer : t -> (unit -> unit) -> unit

(** [end_turn t] runs deferred work oldest first until none is left,
    including work deferred while it runs. *)
val end_turn : t -> unit

(** [stop t] makes {!run} return after the current event. *)
val stop : t -> unit

(** [step t] executes the earliest event; [false] when the heap is empty. *)
val step : t -> bool

(** [run ?until ?max_events t] drains events in timestamp order.  Stops at
    an empty heap, past [until] (later events stay queued; the clock
    advances to [until]), after [max_events], or on {!stop}. *)
val run : ?until:Sim_time.t -> ?max_events:int -> t -> unit

(** Queued events; cancelled timers are not counted. *)
val pending : t -> int
