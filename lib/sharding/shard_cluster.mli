(** A sharded deployment (§6j): independent replication groups — one
    {!Edc_zookeeper.Cluster} per shard, each on its own message plane —
    glued by a {!Shard_map} and an inter-shard plane that carries 2PC
    frames between group leaders.  Groups share nothing in the steady
    state; only atomic cross-shard multis touch the inter-shard plane. *)

open Edc_simnet
open Edc_zookeeper

type t

val create :
  ?n_replicas:int ->
  ?net_config:Net.config ->
  ?ishard_net_config:Net.config ->
  ?server_config:Server.config ->
  ?zab_config:Edc_replication.Zab.config ->
  map:Shard_map.t ->
  Sim.t ->
  t

val sim : t -> Sim.t
val map : t -> Shard_map.t
val n_groups : t -> int
val group : t -> int -> Cluster.t
val servers : t -> int -> Server.t array
val shard_leader : t -> int -> Server.t option
val ishard_net : t -> Edc_replication.Two_pc.frame Net.t

(** Client endpoint on one shard's plane; connect from a fiber. *)
val client : ?config:Client.config -> ?replica:int -> t -> shard:int -> unit -> Client.t

val connected_client :
  ?config:Client.config -> ?replica:int -> t -> shard:int -> unit -> Client.t

val crash_server : t -> shard:int -> int -> unit
val restart_server : t -> shard:int -> int -> unit

(** Partition a shard off the inter-shard plane / heal it (shard-targeted
    chaos: stalls prepares into the shard, leaves its group running). *)

val cut_shard : t -> int -> unit
val heal_shard : t -> int -> unit

(** {2 Deployment-wide 2PC observations (checker inputs)} *)

(** Resolved outcomes per replica: [(shard, replica, oldest-first
    [(txid, committed)])]. *)
val audits : t -> (int * int * (string * bool) list) list

(** Paths still write-locked: [(shard, replica, path, txid)]. *)
val residual_locks : t -> (int * int * string * string) list

(** Transactions still in doubt: [(shard, replica, txid, coord)]. *)
val residual_prepared : t -> (int * int * string * int) list

val run_for : t -> Sim_time.t -> unit
