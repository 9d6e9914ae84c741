(** Uniform construction of the four evaluated deployments: ZooKeeper,
    EXTENSIBLE ZOOKEEPER, DepSpace, and EXTENSIBLE DEPSPACE — each
    configured to tolerate one fault as in §6 (three replicas for the
    crash-tolerant systems, four for the BFT ones). *)

open Edc_simnet
open Edc_recipes
module Zk = Edc_zookeeper
module Ds = Edc_depspace
module Ezk_cluster = Edc_ezk.Ezk_cluster

type kind = Zookeeper | Ezk | Depspace | Eds

let kind_name = function
  | Zookeeper -> "ZooKeeper"
  | Ezk -> "EZK"
  | Depspace -> "DepSpace"
  | Eds -> "EDS"

let is_extensible = function Ezk | Eds -> true | Zookeeper | Depspace -> false

let all = [ Zookeeper; Ezk; Depspace; Eds ]

type snapshot_stats = {
  ss_captures : int;
  ss_serializations : int;
  ss_skipped : int;
  ss_installs : int;
  ss_chunks_sent : int;
  ss_chunk_retx : int;
  ss_bytes_streamed : int;
  ss_transfers_started : int;
  ss_transfers_completed : int;
  ss_resumes : int;
  ss_last_resume_from : int;
}

type wire_stats = { ws_encodes : int; ws_sends : int }

let wire_stats_zero = { ws_encodes = 0; ws_sends = 0 }

let snapshot_stats_zero =
  {
    ss_captures = 0;
    ss_serializations = 0;
    ss_skipped = 0;
    ss_installs = 0;
    ss_chunks_sent = 0;
    ss_chunk_retx = 0;
    ss_bytes_streamed = 0;
    ss_transfers_started = 0;
    ss_transfers_completed = 0;
    ss_resumes = 0;
    ss_last_resume_from = 0;
  }

type t = {
  sim : Sim.t;
  kind : kind;
  new_api : unit -> Coord_api.t * int;
      (** fresh connected client (call from a fiber); returns the abstract
          API plus the client's network address (for byte accounting) *)
  new_resilient_api : unit -> Coord_api.t * int;
      (** like [new_api], but through the resilient session layer
          (deadlines, backoff, failover, safe resubmission) with timeouts
          tightened for fault-heavy runs *)
  bytes_sent_by : int -> int;
  nemesis_target : unit -> Nemesis.target;
  dropped_messages : unit -> int;
  anomalies : unit -> int;
      (** replication-safety violations detected by the state machines
          (must stay 0 in every run) *)
  snapshot_stats : unit -> snapshot_stats;
  wire_stats : unit -> wire_stats;
      (* serializer work summed over replicas: encodes (distinct frames) vs
         per-destination sends; zeros for the BFT deployments, whose servers
         do not expose the counters *)
  (* elastic membership (joint-consensus reconfiguration through the
     log); the BFT deployments are static and return [Error]/zeros *)
  add_replica : unit -> (int, string) result;
      (** boot a learner, hand it to the leader for bootstrap + admission;
          returns its replica id *)
  add_observer : unit -> (int, string) result;
      (** attach a permanent non-voting observer: bootstrapped like a
          learner (chunked snapshot transfer), it consumes the commit
          stream and serves reads but never votes or joins any quorum *)
  remove_replica : int -> (unit, string) result;
      (** ask the leader to remove a replica through the log *)
  members : unit -> int list;
      (** current voter set (the leader's view when one exists) *)
  reconfig_in_flight : unit -> bool;
  reconfig_stats : unit -> Edc_replication.Zab.reconfig_stats;
      (** cluster-wide aggregation: leader-side counters summed across
          replicas that led, commit-side counters maxed (every live
          replica counts each committed config entry) *)
}

(* Sum the server-side capture counters and the Zab transfer counters over
   a ZooKeeper-style replica array. *)
let zk_snapshot_stats servers () =
  Array.fold_left
    (fun acc s ->
      let x = Edc_replication.Zab.xfer_stats (Zk.Server.zab s) in
      {
        ss_captures = acc.ss_captures + Zk.Server.snapshot_captures s;
        ss_serializations =
          acc.ss_serializations + Zk.Server.snapshot_serializations s;
        ss_skipped = acc.ss_skipped + Zk.Server.snapshots_skipped s;
        ss_installs = acc.ss_installs + Zk.Server.snapshot_installs s;
        ss_chunks_sent = acc.ss_chunks_sent + x.Edc_replication.Zab.chunks_sent;
        ss_chunk_retx = acc.ss_chunk_retx + x.Edc_replication.Zab.chunk_retx;
        ss_bytes_streamed =
          acc.ss_bytes_streamed + x.Edc_replication.Zab.bytes_streamed;
        ss_transfers_started =
          acc.ss_transfers_started + x.Edc_replication.Zab.transfers_started;
        ss_transfers_completed =
          acc.ss_transfers_completed + x.Edc_replication.Zab.transfers_completed;
        ss_resumes = acc.ss_resumes + x.Edc_replication.Zab.resumes;
        ss_last_resume_from =
          max acc.ss_last_resume_from
            x.Edc_replication.Zab.last_resume_from;
      })
    snapshot_stats_zero servers

let zk_wire_stats servers () =
  Array.fold_left
    (fun acc s ->
      {
        ws_encodes = acc.ws_encodes + Zk.Server.wire_encodes s;
        ws_sends = acc.ws_sends + Zk.Server.wire_sends s;
      })
    wire_stats_zero servers

(* Fault-heavy runs want clients that notice a dead replica quickly; the
   4 s defaults would dominate every recovery-time measurement. *)
let chaos_zk_client_config =
  { Zk.Client.request_timeout = Sim_time.sec 1; ping_interval = Sim_time.ms 500 }

let chaos_ds_client_config =
  { Ds.Ds_client.request_timeout = Sim_time.sec 1 }

module Zab = Edc_replication.Zab

let reconfig_stats_zero () =
  {
    Zab.joins_requested = 0;
    joint_proposed = 0;
    joint_commits = 0;
    finals_committed = 0;
    joins_completed = 0;
    leaves_requested = 0;
    leaves_completed = 0;
    aborted = 0;
    fences = 0;
    catchup_ms = [];
  }

(* Leader-side counters (adoptions, proposals, removals, catch-up times)
   live on whichever replicas led and sum cleanly; commit-side counters
   increment on EVERY replica that applies the config entry, so the
   cluster-wide value is the max, not the sum. *)
let zk_reconfig_stats servers () =
  let acc = reconfig_stats_zero () in
  Array.iter
    (fun s ->
      let r = Zab.reconfig_stats (Zk.Server.zab s) in
      acc.Zab.joins_requested <- acc.Zab.joins_requested + r.Zab.joins_requested;
      acc.Zab.joint_proposed <- acc.Zab.joint_proposed + r.Zab.joint_proposed;
      acc.Zab.joint_commits <- max acc.Zab.joint_commits r.Zab.joint_commits;
      acc.Zab.finals_committed <-
        max acc.Zab.finals_committed r.Zab.finals_committed;
      acc.Zab.joins_completed <-
        max acc.Zab.joins_completed r.Zab.joins_completed;
      acc.Zab.leaves_requested <-
        acc.Zab.leaves_requested + r.Zab.leaves_requested;
      acc.Zab.leaves_completed <-
        max acc.Zab.leaves_completed r.Zab.leaves_completed;
      acc.Zab.aborted <- max acc.Zab.aborted r.Zab.aborted;
      acc.Zab.fences <- acc.Zab.fences + r.Zab.fences;
      acc.Zab.catchup_ms <- r.Zab.catchup_ms @ acc.Zab.catchup_ms)
    (servers ());
  acc

let zk_members servers () =
  let ss = servers () in
  match Array.find_opt Zk.Server.is_leader ss with
  | Some l -> Zab.members (Zk.Server.zab l)
  | None ->
      Array.fold_left
        (fun acc s ->
          let z = Zk.Server.zab s in
          if Zab.is_fenced z then acc
          else List.sort_uniq compare (acc @ Zab.members z))
        [] ss

let zk_reconfig_in_flight servers () =
  (* a fenced replica's opinion is history: it was removed mid-change and
     may sit on a joint view forever (nobody replicates to it anymore) *)
  Array.exists
    (fun s ->
      let z = Zk.Server.zab s in
      (not (Zab.is_fenced z)) && Zab.reconfig_in_flight z)
    (servers ())

let target_name kind = String.lowercase_ascii (kind_name kind)

(* One arm per replication substrate.  EZK and EDS are the plain ensembles
   with an extension manager installed on each replica; they differ from
   ZooKeeper and DepSpace only in the steps that (re)build that manager:
   restart, and for EZK the two ways of growing the ensemble. *)
let make ?net_config ?batch ?zab_config ?server_config kind sim =
  match kind with
  | Zookeeper | Ezk ->
      let zab_config =
        match batch with
        | None -> zab_config
        | Some b ->
            let base = Option.value zab_config ~default:Zab.default_config in
            Some { base with Zab.batch = b }
      in
      let cluster, restart, add_server, add_observer =
        if kind = Ezk then
          let e =
            Ezk_cluster.create ?net_config ?server_config ?zab_config sim
          in
          ( Ezk_cluster.cluster e,
            Ezk_cluster.restart_server e,
            (fun () -> Ezk_cluster.add_server e),
            fun () -> Ezk_cluster.add_observer e )
        else
          let c =
            Zk.Cluster.create ?net_config ?server_config ?zab_config sim
          in
          ( c,
            Zk.Cluster.restart_server c,
            (fun () -> Zk.Cluster.add_server c),
            fun () -> Zk.Cluster.add_observer c )
      in
      let extensible = is_extensible kind in
      let servers () = Zk.Cluster.servers cluster in
      let net = Zk.Cluster.net cluster in
      {
        sim;
        kind;
        new_api =
          (fun () ->
            let c = Zk.Cluster.connected_client cluster () in
            (Coord_zk.of_client ~extensible c, Zk.Client.addr c));
        new_resilient_api =
          (fun () ->
            let c =
              Zk.Cluster.connected_client ~config:chaos_zk_client_config
                cluster ()
            in
            let replicas = List.init (Array.length (servers ())) Fun.id in
            let s = Zk.Session.wrap ~sim ~replicas c in
            (Coord_zk.of_session ~extensible s, Zk.Client.addr c));
        bytes_sent_by = Net.bytes_sent_by net;
        nemesis_target =
          (fun () ->
            Zk.Cluster.nemesis_target ~name:(target_name kind) ~restart
              cluster);
        dropped_messages = (fun () -> Net.dropped_messages net);
        anomalies =
          (fun () ->
            Array.fold_left
              (fun acc s -> acc + Zk.Data_tree.anomalies (Zk.Server.tree s))
              0 (servers ()));
        snapshot_stats = (fun () -> zk_snapshot_stats (servers ()) ());
        wire_stats = (fun () -> zk_wire_stats (servers ()) ());
        add_replica = (fun () -> Ok (add_server ()));
        add_observer = (fun () -> Ok (add_observer ()));
        remove_replica = (fun id -> Zk.Cluster.remove_server cluster ~id);
        members = zk_members servers;
        reconfig_in_flight = zk_reconfig_in_flight servers;
        reconfig_stats = zk_reconfig_stats servers;
      }
  | Depspace | Eds ->
      ignore zab_config (* BFT deployments do not run Zab *);
      let pbft_config =
        Option.map (fun b -> { Edc_replication.Pbft.batch = b }) batch
      in
      let cluster, restart =
        if kind = Eds then
          let e = Edc_eds.Eds_cluster.create ?net_config ?pbft_config sim in
          (Edc_eds.Eds_cluster.cluster e, Edc_eds.Eds_cluster.restart_server e)
        else
          let c = Ds.Ds_cluster.create ?net_config ?pbft_config sim in
          (c, Ds.Ds_cluster.restart_server c)
      in
      let extensible = is_extensible kind in
      let net = Ds.Ds_cluster.net cluster in
      let static _ = Error (kind_name kind ^ " membership is static") in
      {
        sim;
        kind;
        new_api =
          (fun () ->
            let c = Ds.Ds_cluster.client cluster () in
            (Coord_ds.of_client ~extensible c, Ds.Ds_client.addr c));
        new_resilient_api =
          (fun () ->
            let c =
              Ds.Ds_cluster.client ~config:chaos_ds_client_config cluster ()
            in
            let s = Ds.Ds_session.wrap c in
            (Coord_ds.of_session ~extensible s, Ds.Ds_client.addr c));
        bytes_sent_by = Net.bytes_sent_by net;
        nemesis_target =
          (fun () ->
            Ds.Ds_cluster.nemesis_target ~name:(target_name kind) ~restart
              cluster);
        dropped_messages = (fun () -> Net.dropped_messages net);
        anomalies = (fun () -> 0);
        snapshot_stats = (fun () -> snapshot_stats_zero);
        wire_stats = (fun () -> wire_stats_zero);
        add_replica = static;
        add_observer = static;
        remove_replica = static;
        members =
          (fun () ->
            List.init (Array.length (Ds.Ds_cluster.servers cluster)) Fun.id);
        reconfig_in_flight = (fun () -> false);
        reconfig_stats = (fun () -> reconfig_stats_zero ());
      }
