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

(** Deterministic for a fixed simulator seed.  [wrap_api] decorates each
    stress client's API before use (e.g. {!Edc_checker.Instrument.wrap}
    for history capture); the admin/setup client is not wrapped. *)
val run :
  ?wrap_api:(Coord_api.t -> Coord_api.t) -> Systems.t -> spec -> results
