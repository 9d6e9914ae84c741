(** Group-commit batcher shared by both replication substrates.

    Real coordination services never run one agreement round per client
    operation: ZooKeeper's leader groups transaction-log writes behind a
    single fsync (group commit), and BFT-SMaRt's proposer packs every
    request that arrived during the previous consensus instance into the
    next PRE-PREPARE.  This module factors that mechanism out: items are
    accumulated and handed to [flush] in arrival order, in batches of at
    most [max_batch], whenever a previous flush is not still syncing.
    [sync_cost] models the serial per-batch cost of the agreement round
    itself (the leader's log fsync, the proposer's per-instance protocol
    work): while a flush is paying it, arrivals pile up and ride the
    *next* batch — which is exactly how group commit self-clocks under
    load without any tuned delay.

    [add] never flushes inline: it arms one {!Sim.defer}red check, which
    runs at the end of the current transport turn on a turn-driven sim
    (the TCP path), so everything a turn proposes leaves as one batch
    with no timer.  On a simulated run [defer] runs at once, so with
    [sync_cost = 0] every [add] flushes a singleton batch synchronously,
    exactly as the unbatched protocols did. *)

open Edc_simnet

type config = {
  max_batch : int;  (** maximum items packed into one proposal (>= 1) *)
  sync_cost : Sim_time.t;
      (** serial per-batch agreement cost (log fsync / proposer work) *)
}

(** No added latency and no modelled sync cost: one item per proposal on
    a simulated run, one turn's items per proposal over TCP. *)
let per_turn = { max_batch = 64; sync_cost = Sim_time.zero }

let group_commit ?(max_batch = 32) ?(sync_cost = Sim_time.zero) () =
  { max_batch = Stdlib.max 1 max_batch; sync_cost }

let pp ppf c =
  Fmt.pf ppf "batch<=%d sync=%a" c.max_batch Sim_time.pp c.sync_cost

type 'a t = {
  sim : Sim.t;
  config : config;
  flush : 'a list -> unit;
  mutable pending : 'a list;  (** newest first *)
  mutable n_pending : int;
  mutable syncing : bool;  (** a flush is paying [sync_cost] right now *)
  mutable turn_armed : bool;  (** a deferred [maybe_flush] is queued *)
  mutable generation : int;
      (** invalidates deferred checks and in-flight syncs *)
}

let create ~sim ~config ~flush =
  {
    sim;
    config = { config with max_batch = Stdlib.max 1 config.max_batch };
    flush;
    pending = [];
    n_pending = 0;
    syncing = false;
    turn_armed = false;
    generation = 0;
  }

let pending t = t.n_pending

(** [reset t] drops pending items and invalidates the deferred check and
    any in-flight sync (leadership loss, view change, crash).  Dropped items
    are exactly the proposals that would have been lost had they been
    proposed individually at the same instant. *)
let reset t =
  t.pending <- [];
  t.n_pending <- 0;
  t.syncing <- false;
  t.turn_armed <- false;
  t.generation <- t.generation + 1

(* Oldest-first batch of at most [max_batch] items; the remainder stays
   pending. *)
let take_batch t =
  let rec split k acc rest =
    match rest with
    | [] -> (List.rev acc, [])
    | _ when k = 0 -> (List.rev acc, rest)
    | x :: rest -> split (k - 1) (x :: acc) rest
  in
  let batch, rest = split t.config.max_batch [] (List.rev t.pending) in
  t.pending <- List.rev rest;
  t.n_pending <- List.length rest;
  batch

let rec maybe_flush t =
  if (not t.syncing) && t.n_pending > 0 then begin
    let batch = take_batch t in
    if Sim_time.(t.config.sync_cost <= Sim_time.zero) then begin
      t.flush batch;
      maybe_flush t
    end
    else begin
      t.syncing <- true;
      let gen = t.generation in
      Sim.schedule t.sim ~after:t.config.sync_cost (fun () ->
          if gen = t.generation then begin
            t.syncing <- false;
            t.flush batch;
            maybe_flush t
          end)
    end
  end

let add t x =
  t.pending <- x :: t.pending;
  t.n_pending <- t.n_pending + 1;
  if not t.turn_armed then begin
    t.turn_armed <- true;
    let gen = t.generation in
    Sim.defer t.sim (fun () ->
        if gen = t.generation then begin
          t.turn_armed <- false;
          maybe_flush t
        end)
  end
