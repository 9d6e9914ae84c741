(** Deployment assembly: a simulated DepSpace ensemble plus clients —
    [3f + 1] replicas (four for the paper's [f = 1]); every client talks
    to all replicas. *)

open Edc_simnet

type t

val create :
  ?f:int ->
  ?net_config:Net.config ->
  ?server_config:Ds_server.config ->
  ?pbft_config:Edc_replication.Pbft.config ->
  Sim.t ->
  t

val sim : t -> Sim.t
val net : t -> Ds_protocol.wire Net.t
val servers : t -> Ds_server.t array
val f : t -> int

val client : ?config:Ds_client.config -> t -> unit -> Ds_client.t

(** Crash a replica (process + network). *)
val crash_server : t -> int -> unit

(** Revive a crashed replica (network + PBFT view/state recovery). *)
val restart_server : t -> int -> unit

(** Bind the {!Edc_simnet.Nemesis} fault injector to this ensemble: the
    leader is the PBFT primary, membership is static and there is no
    virtual clock to skew.  [restart] defaults to {!restart_server}; EDS
    passes its own so a restarted replica also reloads its extension
    manager. *)
val nemesis_target :
  name:string -> ?restart:(int -> unit) -> t -> Nemesis.target

val run_for : t -> Sim_time.t -> unit
