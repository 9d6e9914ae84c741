(** A serial CPU resource.

    Work submitted through {!exec} occupies the processor for its cost,
    one task at a time, in submission order: under load, completion times
    queue up behind each other, which is what actually caps a server's
    throughput (a plain scheduled delay would let any number of requests
    "process" in parallel and never saturate). *)

type t = { sim : Sim.t; rng : Rng.t; mutable busy_until : Sim_time.t }

let create sim = { sim; rng = Rng.split (Sim.rng sim); busy_until = Sim_time.zero }

(** [exec t ~cost f] runs [f] when the processor has spent [cost] on this
    task, after finishing everything submitted before it.  Costs carry
    ±25% multiplicative jitter: without it, uniform deterministic service
    times phase-lock closed-loop clients into artificial convoys in which
    conditional updates never conflict — real CPUs (and the paper's
    contention results) do not behave that way.

    Work that finishes now (zero cost on an idle processor) is not an
    event: it is deferred to the end of the current turn, behind the
    turn's other deferred work, so a turn-driven sim runs it in the turn
    that submitted it; a plain sim runs it at once. *)
let exec t ~cost f =
  let cost = Sim_time.scale cost (0.75 +. (0.5 *. Rng.float t.rng)) in
  let now = Sim.now t.sim in
  let finish = Sim_time.add (Sim_time.max now t.busy_until) cost in
  t.busy_until <- finish;
  if Sim_time.(finish <= now) then Sim.defer t.sim f
  else Sim.schedule_at t.sim ~at:finish f

(** Current backlog (how far in the future new work would start). *)
let backlog t =
  Sim_time.max Sim_time.zero (Sim_time.sub t.busy_until (Sim.now t.sim))
