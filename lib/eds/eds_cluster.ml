(** An EXTENSIBLE DEPSPACE deployment: a DepSpace cluster with the
    extension layer installed on every replica. *)

open Edc_depspace

type t = { cluster : Ds_cluster.t; edss : Eds.t array }

let create ?f ?net_config ?server_config ?pbft_config sim =
  let cluster = Ds_cluster.create ?f ?net_config ?server_config ?pbft_config sim in
  { cluster; edss = Array.map Eds.install (Ds_cluster.servers cluster) }

let cluster t = t.cluster
let sim t = Ds_cluster.sim t.cluster
let net t = Ds_cluster.net t.cluster
let eds t i = t.edss.(i)
let servers t = Ds_cluster.servers t.cluster
let client ?config t () = Ds_cluster.client ?config t.cluster ()
let crash_server t i = Ds_cluster.crash_server t.cluster i

(** Restart a replica and rebuild its extension manager from the
    replicated space (§3.8): the durable tuples survive the crash, the
    volatile manager state is rescanned from them. *)
let restart_server t i =
  Ds_cluster.restart_server t.cluster i;
  let fresh = Eds.install (Ds_cluster.servers t.cluster).(i) in
  Eds.reload fresh;
  t.edss.(i) <- fresh

let run_for t d = Ds_cluster.run_for t.cluster d
