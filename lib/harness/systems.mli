(** Uniform construction of the four evaluated deployments (§6): ZooKeeper,
    EZK, DepSpace, EDS — each configured to tolerate one fault (three
    replicas crash-tolerant, four BFT). *)

open Edc_simnet
open Edc_recipes

type kind = Zookeeper | Ezk | Depspace | Eds

(** Snapshot-pipeline counters summed over the deployment's replicas
    (all-zero for the BFT deployments, which do not run the Zab chunked
    state transfer). *)
type snapshot_stats = {
  ss_captures : int;  (** O(1) copy-on-write captures *)
  ss_serializations : int;  (** captures actually marshaled for a transfer *)
  ss_skipped : int;  (** interval fired but log already compacted *)
  ss_installs : int;  (** complete blobs imported atomically *)
  ss_chunks_sent : int;
  ss_chunk_retx : int;
  ss_bytes_streamed : int;
  ss_transfers_started : int;
  ss_transfers_completed : int;
  ss_resumes : int;  (** transfers continued after a stall/leader change *)
  ss_last_resume_from : int;
      (** chunk index the latest resume restarted from, maxed over
          replicas ([> 0] proves a resumed transfer kept its prefix) *)
}

val snapshot_stats_zero : snapshot_stats

(** Serializer-work counters summed over the deployment's replicas:
    [ws_encodes] counts distinct frames handed to the transport (one
    serialization each on an encoding transport — an encode-once broadcast
    counts once regardless of fan-out); [ws_sends] counts per-destination
    deliveries.  Their gap is the work the encode-once broadcast saves.
    All-zero for the BFT deployments. *)
type wire_stats = { ws_encodes : int; ws_sends : int }

val wire_stats_zero : wire_stats

val kind_name : kind -> string
val is_extensible : kind -> bool

(** All four, in the paper's presentation order. *)
val all : kind list

type t = {
  sim : Sim.t;
  kind : kind;
  new_api : unit -> Coord_api.t * int;
      (** fresh connected client (call from a fiber): the abstract API plus
          the client's network address for byte accounting *)
  new_resilient_api : unit -> Coord_api.t * int;
      (** like [new_api], but routed through the resilient session layer
          (deadlines, backoff, replica failover, safe resubmission) with
          client timeouts tightened for fault-heavy runs *)
  bytes_sent_by : int -> int;
  nemesis_target : unit -> Nemesis.target;
      (** the substrate's one target builder
          ({!Edc_zookeeper.Cluster.nemesis_target} or
          {!Edc_depspace.Ds_cluster.nemesis_target}), with EZK's and EDS's
          restart that also reloads the extension manager *)
  dropped_messages : unit -> int;
      (** messages discarded so far by the simulated network (down nodes,
          cut links, loss) *)
  anomalies : unit -> int;
      (** replication-safety violations detected by the state machines
          (must stay 0 in every run) *)
  snapshot_stats : unit -> snapshot_stats;
      (** snapshot/state-transfer counters summed over replicas *)
  wire_stats : unit -> wire_stats;
      (** serializer-work counters summed over replicas *)
  add_replica : unit -> (int, string) result;
      (** elastic growth: boot a non-voting learner that the leader
          bootstraps (snapshot + log sync) and admits through the
          joint-consensus log path; returns the new replica id.  [Error]
          for the static BFT deployments. *)
  add_observer : unit -> (int, string) result;
      (** attach a permanent non-voting observer replica: bootstrapped by
          the chunked snapshot transfer like a learner, it consumes the
          commit stream and serves sequentially-consistent reads but never
          votes, campaigns, or counts toward any quorum.  [Error] for the
          static BFT deployments. *)
  remove_replica : int -> (unit, string) result;
      (** ask the leader to remove a replica through the log; the replica
          is fenced once the final config commits *)
  members : unit -> int list;
      (** current voter set (the leader's view when one exists) *)
  reconfig_in_flight : unit -> bool;
  reconfig_stats : unit -> Edc_replication.Zab.reconfig_stats;
      (** cluster-wide aggregation: leader-side counters (adoptions,
          proposals, removals, catch-up times) summed; commit-side
          counters maxed (each committed config entry is counted by every
          live replica) *)
}

(** [make ?net_config ?batch ?zab_config kind sim] — [batch] configures
    replication group commit uniformly across deployments: it is written
    into the Zab config (over [zab_config]) or the PBFT config, and the
    substrate's default ({!Edc_replication.Batching.per_turn}) holds when it
    is omitted.  [zab_config] applies
    to the Zab-replicated deployments only (ZooKeeper/EZK; ignored for
    the BFT ones) — the linearizability mutation self-test uses it to
    re-enable a known-bad protocol behaviour.  [server_config] likewise
    reaches only ZooKeeper/EZK (e.g. to tighten [snapshot_interval] so a
    run exercises the chunked state transfer). *)
val make :
  ?net_config:Net.config ->
  ?batch:Edc_replication.Batching.config ->
  ?zab_config:Edc_replication.Zab.config ->
  ?server_config:Edc_zookeeper.Server.config ->
  kind ->
  Sim.t ->
  t
