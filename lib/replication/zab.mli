(** Zab-like primary-backup atomic broadcast (the ZooKeeper substrate).

    A single leader orders all transactions, disseminates them to backups,
    and commits on a majority quorum; backups apply the committed prefix in
    order.  Leader recovery uses a vote-based election (Raft-style) whose
    log-completeness rule guarantees the winner holds every committed
    transaction, followed by log synchronization — the property §3.8 of
    the paper relies on.

    Membership is dynamic and goes through the log (joint consensus): a
    change from [c_old] to [c_new] is a replicated [Cc_joint] entry that —
    from the moment it is appended — makes commits and elections require
    majorities of BOTH sets; once it commits, a [Cc_final] entry collapses
    membership to [c_new].  New replicas join as non-voting learners
    bootstrapped by the chunked snapshot transfer and gain a vote only when
    caught up; replicas outside the config are fenced (never win elections,
    and the deployment refuses their reads via {!is_fenced}).

    Transport-agnostic: the deployment supplies [send] and feeds incoming
    messages to {!handle}; timers run on the shared simulator. *)

open Edc_simnet

type zxid = { epoch : int; counter : int }

val zxid_compare : zxid -> zxid -> int

(** A member set: sorted, duplicate-free replica ids. *)
type member_set = int list

type membership =
  | Stable of member_set
  | Joint of { c_old : member_set; c_new : member_set }
      (** transition in progress: decisions need majorities of both sets *)

(** The two log-entry kinds a reconfiguration replicates. *)
type config_change =
  | Cc_joint of { c_old : member_set; c_new : member_set }
  | Cc_final of { members : member_set }

(** What a log entry carries: an application payload or a config change
    (config entries are consumed by the protocol and never reach
    [on_deliver]). *)
type 'p payload = App of 'p | Config of config_change

type 'p entry = { zxid : zxid; payload : 'p payload }

type 'p msg =
  | Ping of { epoch : int; committed : int; sent : Sim_time.t }
      (** heartbeat; [sent] is the leader's local-clock reading at
          transmission, echoed back by lease grants *)
  | Propose of {
      epoch : int;
      index : int;
      prev_zxid : zxid;
          (** zxid of the entry just below [index] (log-matching check:
              a follower whose log disagrees must resync rather than
              append onto a divergent tail) *)
      entries : 'p entry list;
    }
      (** a group-committed batch of consecutive entries starting at
          absolute index [index] *)
  | Ack of { epoch : int; upto : int }
      (** cumulative: the sender durably holds the prefix of length
          [upto] *)
  | Commit of { epoch : int; index : int }
  | Request_vote of { epoch : int; candidate : int; last_zxid : zxid }
  | Vote of { epoch : int }
  | Sync_request of { epoch : int; have : int }
  | Sync of { epoch : int; from : int; entries : 'p entry list; committed : int }
  | Snapshot_begin of {
      epoch : int;
      base : int;  (** the snapshot covers entries [0, base) *)
      total : int;  (** blob size in bytes *)
      chunk_size : int;
      digest : string;
          (** of the whole blob: lets a follower resume a partial transfer
              under a new leader only when the bytes are provably the same *)
      committed : int;
      config : membership;
          (** membership in effect at [base], so a bootstrapping learner
              can reconstruct the member set past compacted config
              entries *)
    }
      (** opens a chunked, flow-controlled state transfer; the blob follows
          in [Snapshot_chunk]s, the retained log suffix is fetched
          afterwards via the normal [Sync] path *)
  | Snapshot_chunk of { epoch : int; base : int; seq : int; data : string }
  | Snapshot_ack of { epoch : int; base : int; received : int }
      (** cumulative chunk ack; a duplicate doubles as a retransmit solicit
          so transfers resume from the last contiguous chunk after drops *)
  | Join_request of { epoch : int; id : int }
      (** learner handshake: a non-member asks the leader to adopt and
          bootstrap it; re-broadcast on silence so it survives leader
          changes and crash/restart of a half-bootstrapped learner *)
  | Fence of { epoch : int }
      (** stand-down order from the leader to a replica outside the config *)
  | Lease_grant of { epoch : int; sent : Sim_time.t }
      (** a voter's promise, answering a [Ping], not to grant any vote for
          the next [lease_duration] on its clock; [sent] echoes the ping's
          send timestamp so the leader anchors the expiry at its own send
          time *)
  | Observer_request of { epoch : int; id : int }
      (** observer handshake: a permanent non-voting replica asks the
          leader for the commit stream; bootstrapped like a learner but
          never promoted; re-broadcast on silence *)

type role = Leader | Follower | Candidate

type config = {
  batch : Batching.config;
      (** leader-side group commit; {!Batching.per_turn} reproduces unbatched
          behaviour exactly on a simulated run and proposes one batch per
          transport turn over TCP *)
  unsafe_skip_log_matching : bool;
      (** TEST ONLY — resurrects a historical bug: followers accept
          proposals without checking [prev_zxid]/overlap agreement, so a
          divergent uncommitted tail left by a deposed leader can be
          acked and committed (double/ghost applies).  Used by the
          linearizability checker's mutation self-test to prove the
          checker catches real consistency violations; never enable
          outside tests. *)
  unsafe_single_step_reconfig : bool;
      (** TEST ONLY — the classic one-step reconfiguration bug: a
          [Cc_joint] entry applies as [Stable c_new] immediately, so during
          the transition a majority of [c_old] and a majority of [c_new]
          can be disjoint and commit independently, losing committed
          entries.  Used by regression tests to prove the joint phase is
          what prevents exactly this; never enable outside tests. *)
  snapshot_chunk_size : int;
      (** bytes of snapshot blob per [Snapshot_chunk] *)
  snapshot_window : int;
      (** chunks kept in flight beyond the follower's cumulative ack *)
  lease_duration : Sim_time.t;
      (** leader-lease length: voters answering a heartbeat promise not to
          grant votes for this long on their local clocks, and a leader
          holding live grants from a majority serves linearizable reads
          locally.  Must be below the election timeout (200 ms);
          [Sim_time.zero] disables leases. *)
  unsafe_ignore_lease_expiry : bool;
      (** TEST ONLY — the leader treats grants as live forever, so a
          deposed, partitioned leader keeps serving stale "linearizable"
          reads.  Exists so the checker's stale-read detector can prove it
          convicts exactly this; never enable outside tests. *)
}

val default_config : config

type 'p t

(** [create ~sim ~id ~peers ~send ~on_deliver ()] — one replica.
    [on_deliver] receives committed application payloads in order, exactly
    once per lifetime (config entries are consumed internally).  With
    [initial_leader] the ensemble boots with an elected leader of epoch 1
    (skips the cold election).  With [learner:true] the replica starts as
    a non-voting learner whose member set is [peers] minus itself: it
    announces itself via [Join_request], is bootstrapped by the leader
    (snapshot + log sync), and becomes a voter only when a committed
    config admits it.  With [observer:true] the replica is a permanent
    non-voting observer: bootstrapped the same way (via
    [Observer_request]), it consumes the commit stream forever, serves
    sequentially-consistent reads from its applied prefix, and never
    appears in any quorum or election. *)
val create :
  ?config:config ->
  ?initial_leader:int ->
  ?learner:bool ->
  ?observer:bool ->
  ?send_many:(dsts:int list -> 'p msg -> unit) ->
  sim:Sim.t ->
  id:int ->
  peers:int list ->
  send:(dst:int -> 'p msg -> unit) ->
  on_deliver:(zxid -> 'p -> unit) ->
  unit ->
  'p t

val set_on_role_change : 'p t -> (role -> unit) -> unit

(** [start t] begins heartbeat/election timers (and, for a learner, the
    join handshake). *)
val start : 'p t -> unit

(** [propose t payload] — leader only; assigns a zxid and enqueues the
    payload on the group-commit batcher (with {!Batching.per_turn} on a
    simulated run it is disseminated synchronously; over TCP at the end
    of the turn).  Returns the assigned zxid, [None] if
    this replica does not lead. *)
val propose : 'p t -> 'p -> zxid option

(** [remove_server t ~id] — leader only; starts the joint-consensus
    removal of [id].  Refused while another reconfiguration is in flight,
    for non-members, and for the last remaining member.  The removed
    replica is fenced once the final entry commits. *)
val remove_server : 'p t -> id:int -> (unit, string) result

(** [reconfigure t ~c_new] — leader only; starts the joint-consensus
    transition to the complete target ensemble [c_new] (ZooKeeper-style
    reconfig: the caller names the new member set, so a multi-server
    change goes through one joint entry rather than a sequence of
    single-server steps).  Refused while another change is in flight,
    for an empty set, and when nothing changes.  New members are synced
    by the ordinary recovery path once the joint entry puts them in the
    broadcast set. *)
val reconfigure : 'p t -> c_new:member_set -> (unit, string) result

val handle : 'p t -> src:int -> 'p msg -> unit

val is_leader : 'p t -> bool
val role : 'p t -> role
val leader_hint : 'p t -> int option
val epoch : 'p t -> int
val log_length : 'p t -> int
val committed_length : 'p t -> int

(** Absolute index of the oldest retained log entry. *)
val compaction_base : 'p t -> int

(** Length of the prefix handed to [on_deliver] (equals the applied
    prefix, since delivery is synchronous). *)
val delivered_length : 'p t -> int

(** Current voters per this replica's membership view (the union of both
    sets during a joint phase). *)
val members : 'p t -> int list

val membership : 'p t -> membership

(** Leader only: adopted non-voting learners still being bootstrapped. *)
val learners : 'p t -> int list

(** Leader only: adopted observers (permanent non-voting members). *)
val observers : 'p t -> int list

(** The replica was created as an observer. *)
val is_observer : 'p t -> bool

(** Leader leases (virtual-clock based; see [config.lease_duration]). *)

(** The leader currently holds live lease grants from a majority of every
    voting set (both sets during a joint phase — the intersection rule),
    so a local read is linearizable.  Always false on non-leaders and
    with leases disabled. *)
val lease_valid : 'p t -> bool

(** Same check, with accounting: the deployment's read-path gate.  False
    means the read must take the commit path instead. *)
val can_serve_lease_read : 'p t -> bool

(** Virtual clock: [Sim.now] plus a settable per-replica offset (the
    clock-skew nemesis hook).  Skew affects only lease arithmetic, never
    simulator timers. *)
val set_clock_skew : 'p t -> Sim_time.t -> unit

type lease_stats = {
  mutable grants_sent : int;  (** follower: promises made *)
  mutable grants_received : int;  (** leader: grants accepted from voters *)
  mutable reads_held : int;  (** leader: fast-path checks that said yes *)
  mutable reads_expired : int;  (** leader: checks that fell back *)
  mutable vote_refusals : int;
      (** votes/campaigns refused under an outstanding promise *)
}

val lease_stats : 'p t -> lease_stats

(** The replica has been told (by a committed config or the leader's
    [Fence]) that it is outside the member set: it never campaigns or
    votes, and the deployment must refuse to serve its reads. *)
val is_fenced : 'p t -> bool

(** A membership change is underway (joint phase, or a config entry
    waiting in the batcher). *)
val reconfig_in_flight : 'p t -> bool

(** [set_install_snapshot t f] — the application hook that replaces local
    state with a received snapshot blob (called once per completed chunked
    transfer, with the fully assembled blob: the import is atomic even
    though delivery is streamed).  The blob is untrusted bytes: the hook
    returns [Error] if it does not decode, in which case local state must
    be untouched — the transfer layer rejects the snapshot, keeps its
    horizon, and re-requests a sync instead of dying. *)
val set_install_snapshot : 'p t -> (string -> (unit, string) result) -> unit

(** [compact t ~take] snapshots the delivered prefix and drops it from the
    log; lagging replicas then recover via chunked state transfer.
    [take ()] runs at compaction time and must capture the state at the
    horizon cheaply; the serializer it returns is forced only when a state
    transfer actually needs the bytes (cached until the next
    compaction). *)
val compact : 'p t -> take:(unit -> unit -> string) -> unit

(** State-transfer counters (cumulative over the replica's lifetime). *)
type xfer_stats = {
  mutable serializations : int;
      (** times the lazy snapshot was actually marshaled *)
  mutable chunks_sent : int;
  mutable chunk_retx : int;  (** chunks re-sent below the high-water mark *)
  mutable bytes_streamed : int;  (** chunk payload bytes sent *)
  mutable transfers_started : int;
  mutable transfers_completed : int;
  mutable resumes : int;  (** transfers continued after a stall or leader change *)
  mutable last_resume_from : int;
      (** chunk index the latest resume restarted from (never rewinds to 0
          unless the follower actually lost its prefix) *)
  mutable installs : int;  (** complete blobs handed to the application *)
  mutable install_rejects : int;
      (** assembled blobs the application refused to decode (corrupt or
          truncated bytes rejected through the codec's [Error] path) *)
}

val xfer_stats : 'p t -> xfer_stats

(** Reconfiguration counters (cumulative; leader-side counters only move
    on replicas that led). *)
type reconfig_stats = {
  mutable joins_requested : int;
      (** leader: distinct learners adopted after a [Join_request] *)
  mutable joint_proposed : int;  (** leader: [Cc_joint] entries proposed *)
  mutable joint_commits : int;  (** [Cc_joint] entries committed *)
  mutable finals_committed : int;  (** [Cc_final] entries committed *)
  mutable joins_completed : int;
      (** members that entered the stable config via a committed final *)
  mutable leaves_requested : int;  (** leader: [remove_server] accepted *)
  mutable leaves_completed : int;
      (** members that left the stable config via a committed final *)
  mutable aborted : int;
      (** joint entries truncated away uncommitted (proposer lost
          leadership before the joint entry committed) *)
  mutable fences : int;  (** times this replica was fenced *)
  mutable catchup_ms : float list;
      (** leader: per-promoted-learner bootstrap time, newest first *)
}

val reconfig_stats : 'p t -> reconfig_stats

(** [crash t] stops the replica; the log/epoch/membership persist (the
    on-disk transaction log).  [restart t] rejoins as a follower — or, for
    a still-joining learner, re-announces itself — and catches up. *)
val crash : 'p t -> unit

val restart : 'p t -> unit

(** Modelled wire size of a protocol message. *)
val msg_size : payload_size:('p -> int) -> 'p msg -> int
