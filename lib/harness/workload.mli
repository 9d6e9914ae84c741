(** Closed-loop stress workload (§6): each client continuously invokes the
    operation under test with at most one request pending; measurements are
    confined to a steady-state window, with client byte counters
    snapshotted at the window edges (the paper's per-op data cost). *)

open Edc_simnet
open Edc_recipes

type results = {
  ops : int;
  errors : int;
  duration : Sim_time.t;
  throughput : float;  (** ops per simulated second *)
  mean_latency_ms : float;
  p99_latency_ms : float;
  client_bytes : int;
  kb_per_op : float;
  attempts_per_op : float;  (** retry amplification (1.0 = none) *)
}

type spec = {
  n_clients : int;
  warmup : Sim_time.t;
  measure : Sim_time.t;
  setup : Coord_api.t -> unit;  (** one admin client, before the stress *)
  prepare : Coord_api.t -> unit;  (** per-client (e.g. acknowledge) *)
  op : Coord_api.t -> (int, string) result;
      (** one closed-loop iteration; returns its attempt count *)
  ops_per_iteration : int;
}

(** A steady-state measurement window in simulated time. *)
type window = { start : Sim_time.t; stop : Sim_time.t }

(** [window sim ~warmup ~measure] opens [warmup] after now and lasts
    [measure]. *)
val window : Sim.t -> warmup:Sim_time.t -> measure:Sim_time.t -> window

(** [repeat sim ~until f] runs [f] back to back while the clock is before
    [until]: the loop of every simulated client, to be called inside a
    fibre.  [f] may sleep (think time) or block on requests. *)
val repeat : Sim.t -> until:Sim_time.t -> (unit -> unit) -> unit

(** [closed_loop sim w op record] is one closed-loop client, to be called
    inside a fibre: it invokes [op] back to back until [w.stop] and calls
    [record outcome ms] for every invocation that started at or after
    [w.start] and returned by [w.stop], with its latency in ms. *)
val closed_loop :
  Sim.t -> window -> (unit -> 'a) -> ('a -> float -> unit) -> unit

(** Deterministic for a fixed simulator seed.  [wrap_api] decorates each
    stress client's API before use (e.g. {!Edc_checker.Instrument.wrap}
    for history capture); the admin/setup client is not wrapped. *)
val run :
  ?wrap_api:(Coord_api.t -> Coord_api.t) -> Systems.t -> spec -> results
