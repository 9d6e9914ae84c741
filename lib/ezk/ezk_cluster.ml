(** An EXTENSIBLE ZOOKEEPER deployment: a plain ZooKeeper cluster with an
    extension manager installed on every replica and the ["/em"] objects
    bootstrapped. *)

open Edc_zookeeper

type t = { cluster : Cluster.t; mutable ezks : Ezk.t array }

let create ?n_replicas ?net_config ?server_config ?zab_config sim =
  let cluster =
    Cluster.create ?n_replicas ?net_config ?server_config ?zab_config sim
  in
  let ezks = Array.map Ezk.install (Cluster.servers cluster) in
  (* replica 0 is the initial leader *)
  Ezk.bootstrap (Cluster.servers cluster).(0);
  { cluster; ezks }

let cluster t = t.cluster
let sim t = Cluster.sim t.cluster
let net t = Cluster.net t.cluster
let ezk t i = t.ezks.(i)
let servers t = Cluster.servers t.cluster

let client ?config ?replica t () = Cluster.client ?config ?replica t.cluster ()

let connected_client ?config ?replica t () =
  Cluster.connected_client ?config ?replica t.cluster ()

let crash_server t i = Cluster.crash_server t.cluster i

(** Grow the ensemble: the learner gets its extension manager at boot, and
    the manager reconciles itself from the replicated tree as the snapshot
    bootstrap lands (the [on_snapshot_installed] hook). *)
let add_server t =
  let id = Cluster.add_server t.cluster in
  let fresh = Ezk.install (Cluster.servers t.cluster).(id) in
  t.ezks <- Array.append t.ezks [| fresh |];
  id

(** Attach a permanent non-voting observer with its extension manager
    installed (reconciled from the replicated tree as the bootstrap
    snapshot lands). *)
let add_observer t =
  let id = Cluster.add_observer t.cluster in
  let fresh = Ezk.install (Cluster.servers t.cluster).(id) in
  t.ezks <- Array.append t.ezks [| fresh |];
  id

let remove_server t ~id = Cluster.remove_server t.cluster ~id

(** Restart a replica and reload its extension manager from the replicated
    tree (§3.8). *)
let restart_server t i =
  Cluster.restart_server t.cluster i;
  (* model the process restart: the volatile manager state is rebuilt from
     data objects *)
  let fresh = Ezk.install (Cluster.servers t.cluster).(i) in
  Ezk.reload fresh;
  t.ezks.(i) <- fresh

let run_for t d = Cluster.run_for t.cluster d
