(** Priority queue of timed events.

    An indexed binary min-heap keyed by [(time, seq)].  The sequence number
    is a monotonically increasing tie-breaker assigned at insertion, so
    events scheduled for the same instant fire in insertion order.  This
    stable ordering is what makes the whole simulation deterministic.

    Every entry records its own slot in [pos], so an entry handed out by
    {!add} can be deleted eagerly in O(log n) by {!remove}.  Removal never
    touches [next_seq]: the entries that stay keep their keys and so their
    firing order. *)

type 'a entry = {
  time : Sim_time.t;
  seq : int;
  payload : 'a;
  mutable pos : int;  (** slot in [heap], or [-1] once popped or removed *)
}

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let entry_before a b =
  a.time < b.time || (a.time = b.time && a.seq < b.seq)

let create () = { heap = [||]; size = 0; next_seq = 0 }

let length q = q.size
let is_empty q = q.size = 0

let grow q witness =
  let capacity = Array.length q.heap in
  if q.size >= capacity then begin
    let new_capacity = Stdlib.max 16 (2 * capacity) in
    let heap = Array.make new_capacity witness in
    Array.blit q.heap 0 heap 0 q.size;
    q.heap <- heap
  end

let set q i e =
  q.heap.(i) <- e;
  e.pos <- i

let swap q i j =
  let tmp = q.heap.(i) in
  set q i q.heap.(j);
  set q j tmp

let rec sift_up q i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_before q.heap.(i) q.heap.(parent) then begin
      swap q i parent;
      sift_up q parent
    end
  end

let rec sift_down q i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < q.size && entry_before q.heap.(left) q.heap.(!smallest) then
    smallest := left;
  if right < q.size && entry_before q.heap.(right) q.heap.(!smallest) then
    smallest := right;
  if !smallest <> i then begin
    swap q i !smallest;
    sift_down q !smallest
  end

(* The slot at [q.size] has just been vacated and may still hold the
   dropped entry: point it at a live one, or let the array go once the
   queue is empty, so a dropped payload never stays reachable. *)
let forget_vacated q =
  if q.size = 0 then q.heap <- [||] else q.heap.(q.size) <- q.heap.(0)

(** [add q ~time payload] inserts an event and returns its entry, a handle
    for {!remove}; events with equal time pop in insertion order. *)
let add q ~time payload =
  let e = { time; seq = q.next_seq; payload; pos = q.size } in
  q.next_seq <- q.next_seq + 1;
  grow q e;
  q.heap.(q.size) <- e;
  q.size <- q.size + 1;
  sift_up q (q.size - 1);
  e

let push q ~time payload = ignore (add q ~time payload : _ entry)

(** [remove q e] deletes [e] if it is still queued: the last entry moves
    into its slot and sifts up or down.  A no-op for an entry already
    popped, removed or cleared. *)
let remove q e =
  let i = e.pos in
  if i >= 0 && i < q.size && q.heap.(i) == e then begin
    e.pos <- -1;
    q.size <- q.size - 1;
    if i < q.size then begin
      let last = q.heap.(q.size) in
      set q i last;
      if i > 0 && entry_before last q.heap.((i - 1) / 2) then sift_up q i
      else sift_down q i
    end;
    forget_vacated q
  end

let peek_time q = if q.size = 0 then None else Some q.heap.(0).time

(** [pop q] removes and returns the earliest event as [(time, payload)]. *)
let pop q =
  if q.size = 0 then None
  else begin
    let top = q.heap.(0) in
    top.pos <- -1;
    q.size <- q.size - 1;
    if q.size > 0 then begin
      set q 0 q.heap.(q.size);
      sift_down q 0
    end;
    forget_vacated q;
    Some (top.time, top.payload)
  end

(** [clear q] drops all pending events and every reference to them. *)
let clear q =
  q.size <- 0;
  q.heap <- [||]
