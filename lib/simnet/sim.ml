(** Discrete-event simulation engine.

    A single virtual clock and an event heap.  Components schedule closures
    to run at future instants; [run] drains the heap in timestamp order,
    advancing the clock.  Everything in the repository — network delivery,
    server processing, client think time, timeouts — is driven through this
    one loop, which is what makes whole-cluster runs deterministic. *)

type t = {
  mutable now : Sim_time.t;
  events : (unit -> unit) Event_queue.t;
  rng : Rng.t;
  mutable stopped : bool;
  mutable executed : int;
  mutable turn_driven : bool;
  deferred : (unit -> unit) Queue.t;  (** work for the end of this turn *)
}

let create ?(seed = 42) () =
  {
    now = Sim_time.zero;
    events = Event_queue.create ();
    rng = Rng.create seed;
    stopped = false;
    executed = 0;
    turn_driven = false;
    deferred = Queue.create ();
  }

let now t = t.now
let rng t = t.rng

(** [executed_events t] counts events processed so far (useful in tests and
    as a runaway guard). *)
let executed_events t = t.executed

type timer = (unit -> unit) Event_queue.entry

(** [timer t ~after f] runs [f] at [now + after] unless cancelled first.
    Negative delays are clamped to zero. *)
let timer t ~after f =
  let after = Sim_time.max after Sim_time.zero in
  Event_queue.add t.events ~time:(Sim_time.add t.now after) f

(** [cancel t timer] removes [timer] from the heap, dropping its closure;
    a no-op once it has fired or been cancelled.  Consumes no sequence
    number, so every other event keeps its place in the firing order. *)
let cancel t timer = Event_queue.remove t.events timer

(** [schedule t ~after f] is an uncancellable {!timer}. *)
let schedule t ~after f = ignore (timer t ~after f : timer)

(** [schedule_at t ~at f] runs [f] at absolute time [at] (clamped to now). *)
let schedule_at t ~at f =
  Event_queue.push t.events ~time:(Sim_time.max at t.now) f

(** [set_turn_driven t] hands the end of each turn to an outer loop
    (the TCP transport's poll), which must call {!end_turn}. *)
let set_turn_driven t = t.turn_driven <- true

(** [defer t f] runs [f] at the next {!end_turn}, after everything queued
    before it; on a sim nobody marked turn-driven it runs [f] at once. *)
let defer t f = if t.turn_driven then Queue.push f t.deferred else f ()

(** [end_turn t] runs the deferred work in FIFO order, including work
    deferred while it runs. *)
let end_turn t =
  while not (Queue.is_empty t.deferred) do
    (Queue.pop t.deferred) ()
  done

(** [stop t] makes [run] return after the current event. *)
let stop t = t.stopped <- true

(** [step t] executes the earliest pending event; returns [false] when the
    heap is empty. *)
let step t =
  match Event_queue.pop t.events with
  | None -> false
  | Some (time, f) ->
      t.now <- Sim_time.max t.now time;
      t.executed <- t.executed + 1;
      f ();
      true

(** [run ?until ?max_events t] drains the event heap in order.  Stops when
    the heap is empty, when the next event lies beyond [until], after
    [max_events] events, or after [stop].  Events beyond [until] remain
    queued, and the clock is advanced to [until] so a subsequent [run] picks
    up where this one left off. *)
let run ?until ?max_events t =
  t.stopped <- false;
  let budget = ref (match max_events with None -> -1 | Some n -> n) in
  let continue_ = ref true in
  while !continue_ do
    if t.stopped || !budget = 0 then continue_ := false
    else
      match Event_queue.peek_time t.events with
      | None -> continue_ := false
      | Some next -> (
          match until with
          | Some horizon when Sim_time.(horizon < next) ->
              t.now <- Sim_time.max t.now horizon;
              continue_ := false
          | _ ->
              ignore (step t : bool);
              if !budget > 0 then decr budget)
  done;
  match until with
  | Some horizon when Event_queue.is_empty t.events ->
      (* No more events: still report the requested horizon as "now". *)
      t.now <- Sim_time.max t.now horizon
  | _ -> ()

(** [pending t] is the number of queued events; cancelled timers are not
    counted. *)
let pending t = Event_queue.length t.events
