(** An EXTENSIBLE DEPSPACE deployment: a DepSpace cluster with the
    extension layer installed on every replica. *)

open Edc_simnet
open Edc_depspace

type t

val create :
  ?f:int ->
  ?net_config:Net.config ->
  ?server_config:Ds_server.config ->
  ?pbft_config:Edc_replication.Pbft.config ->
  Sim.t ->
  t

val cluster : t -> Ds_cluster.t
val sim : t -> Sim.t
val net : t -> Ds_protocol.wire Net.t
val eds : t -> int -> Eds.t
val servers : t -> Ds_server.t array
val client : ?config:Ds_client.config -> t -> unit -> Ds_client.t
val crash_server : t -> int -> unit

(** Restart a replica and rebuild its extension manager from the
    replicated space (§3.8). *)
val restart_server : t -> int -> unit

val run_for : t -> Sim_time.t -> unit
