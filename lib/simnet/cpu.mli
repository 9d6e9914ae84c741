(** A serial CPU resource.

    Work submitted through {!exec} occupies the processor one task at a
    time in submission order — under load, completions queue behind each
    other, which is what actually caps a server's throughput.  Costs carry
    ±25% deterministic jitter: uniform service times would phase-lock
    closed-loop clients into artificial convoys. *)

type t

val create : Sim.t -> t

(** [exec t ~cost f] runs [f] once the processor has finished everything
    submitted earlier plus [cost] for this task.  When that is now — a
    zero cost on an idle processor — [f] is not an event: it runs at the
    end of the current turn ({!Sim.defer}), after the work deferred
    before it, so a turn-driven sim runs it in the turn that submitted
    it and a plain sim runs it at once.  Zero-cost work submitted behind
    a backlog still waits for the backlog, as an event. *)
val exec : t -> cost:Sim_time.t -> (unit -> unit) -> unit

(** How far in the future newly submitted work would start. *)
val backlog : t -> Sim_time.t
