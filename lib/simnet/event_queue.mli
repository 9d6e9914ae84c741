(** Priority queue of timed events: an indexed binary min-heap keyed by
    [(time, seq)].  The insertion-order tie-break gives equal-time events
    a stable firing order — the root of the whole simulator's
    determinism.  Entries can be removed before they fire; removal
    consumes no sequence number, so it never reorders the rest. *)

type 'a t

(** A queued event, returned by {!add} as a handle for {!remove}. *)
type 'a entry

val create : unit -> 'a t

(** Events still queued; removed entries are not counted. *)
val length : 'a t -> int

val is_empty : 'a t -> bool

(** [add q ~time payload] inserts and returns the entry; equal times pop
    in insertion order. *)
val add : 'a t -> time:Sim_time.t -> 'a -> 'a entry

(** [push q ~time payload] is {!add} without the handle. *)
val push : 'a t -> time:Sim_time.t -> 'a -> unit

(** [remove q e] deletes [e] in O(log n); a no-op if [e] was already
    popped, removed or cleared. *)
val remove : 'a t -> 'a entry -> unit

val peek_time : 'a t -> Sim_time.t option

(** [pop q] removes and returns the earliest event. *)
val pop : 'a t -> (Sim_time.t * 'a) option

(** [clear q] drops every queued event; the queue keeps no reference to
    their payloads. *)
val clear : 'a t -> unit
