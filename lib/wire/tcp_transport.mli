(** Real-socket implementation of {!Edc_simnet.Transport}.

    A hub multiplexes any number of local addresses (replicas and clients
    of one process) over loopback TCP: address [a] listens on
    [base_port + a], and {!poll} drains readable sockets and dispatches
    complete frames to registered handlers until the hub is quiet.

    Each pair of addresses shares one connection, used in both
    directions, as a ZooKeeper follower uses its one socket to the
    leader: the end an address writes on is the end it reads its peer's
    frames from.  The first send from [src] to [dst] connects; when [dst]
    listens in the same hub, the hub at once accepts that connection
    (matched by the connecting end's local address) and registers the
    accepted end as [dst]'s end towards [src].  So a reply or an ack
    rides the socket its request came in on, and the kernel's ACK for a
    request can ride the reply's segment.  A [dst] outside the hub gets
    a one-sided connection, and a connection a listener accepts from a
    foreign peer only delivers to the listening address: the hub never
    sends on it.  An end that fails is closed and forgotten; its in-hub
    peer end sees EOF at its next read, and the next send opens a new
    pair.

    Stream framing (independent of the {!Wire} frame inside):

    {v [u32 BE frame length] [u32 BE source address] [message bytes] v}

    where the length covers the source word and the message.  Reads are
    buffered per connection, so frames split across TCP segments are
    reassembled, and complete frames are decoded {e in place} from the
    reassembly buffer (no per-frame copy); malformed messages (decoder
    [Error]) and oversized declared lengths are counted and dropped
    without raising — the wire is as untrusted as in-sim bytes.

    Sends are {e corked}: each connection end owns an {!Outbuf},
    [send] appends a framed message to it without a syscall, and the
    cork is flushed once per turn of a {!poll}, so an N-message burst
    costs one [write].  Partial writes retain the unwritten suffix
    for the next flush.  [send_many] (via {!transport}) encodes the
    message once and corks the same bytes on every destination —
    encode-once broadcast.  Sockets use [TCP_NODELAY]; corking replaces
    Nagle batching under our control.

    Sends remain fire-and-forget, matching {!Edc_simnet.Net}: a refused
    connection or broken pipe drops the message (and is counted), and the
    replication layer's retransmission recovers, exactly as it does from
    simulated link loss.  A peer that stops reading is treated the same
    way: a cork that cannot take the next frame within {!cork_hard_limit}
    bytes, even after an inline flush, drops its connection and counts a
    send failure, so a stalled reader cannot grow memory without bound.

    The hub drives the simulator in {e turns}: {!create} marks the sim as
    turn-driven, and a {!poll} runs turns until the hub is quiet.  Each
    turn calls {!Edc_simnet.Sim.end_turn}, uncorks, then reads and
    dispatches.  The first turn selects over every socket, waiting up to
    the caller's timeout: it sees foreign peers, listeners, EOFs and
    whatever an earlier poll left unread.  Every later turn makes no
    [select]: it reads only the ends the hub itself wrote to since the
    turn before, since a write to an in-hub end is the only way bytes
    reach it mid-poll (loopback delivers them before [write] returns),
    and an end whose read filled a whole 64 KiB chunk, which may hold
    more.  The poll stops when a turn reads no frame and leaves nothing
    to read, or after 16 reading turns, a fixed cap that keeps an
    exchange that never goes quiet from holding the caller's loop.  So
    a forwarded write's whole Zab round (request, [Forward], [Propose],
    [Ack], [Commit], reply) completes in one poll, with one [select],
    and each hop costs one [write] and one [read].  Work deferred with
    {!Edc_simnet.Sim.defer} — zero-cost {!Edc_simnet.Cpu} work such as a
    leader's pre-processor, then the group-commit batcher's flush — runs
    in the turn that received its input, and its output leaves in the
    same [write]: a leader proposes all of one turn's requests as one
    batch, beside the commits that turn produced.

    The event loop bridges wall clock and virtual clock: {!drive} runs the
    simulator's timers against elapsed real time and polls the sockets in
    between, so unmodified [Sim]-scheduled replica code (heartbeats,
    elections, client fibers) runs in real time. *)

type 'm t

(** [create ~sim ~base_port ~encode ~decode ()] — a hub for one process;
    marks [sim] as turn-driven (see above), so [sim] must be polled.  It
    also ignores [SIGPIPE] in the process, so that a write to a peer that
    has closed is a counted send failure.
    [decode s ~pos ~len] is applied to every received message body {e in
    place} in the reassembly buffer (decoders must not retain [s]);
    [Error] counts as a decode failure and the frame is dropped. *)
val create :
  sim:Edc_simnet.Sim.t ->
  base_port:int ->
  encode:('m -> string) ->
  decode:(string -> pos:int -> len:int -> ('m, string) result) ->
  unit ->
  'm t

(** [local_base_port ~slot] — a [base_port] for a hub of this process
    whose addresses are below 128.  Its listeners bind between 10000 and
    32767, below the kernel's ephemeral port range (32768–60999 by
    default on Linux), so a port held by an outbound connection, or left
    in TIME-WAIT by one, can never make their [bind] fail.  Slots 0..23
    of one process get disjoint blocks of 128 ports; the process id
    chooses where the process's blocks start.  Raises [Invalid_argument]
    for another slot. *)
val local_base_port : slot:int -> int

(** The {!Edc_simnet.Transport} view: hand this to servers and clients. *)
val transport : 'm t -> 'm Edc_simnet.Transport.t

(** [poll t ~timeout] — run turns until a turn reads no frame and leaves
    no end to read, or until the cap of 16 reading turns: each ends the
    sim's turn and uncorks, then reads, reassembles and dispatches.  The
    first turn selects, waiting at most [timeout] seconds for something
    readable, and accepts on ready listeners; the rest read only the
    in-hub ends written to since the turn before (and ends whose last
    read filled its chunk), with no [select].  The last dispatch's turn
    is ended and uncorked before [poll] returns. *)
val poll : 'm t -> timeout:float -> unit

(** [drive t ~wall] — pump loop: advance the simulator's virtual clock in
    step with elapsed wall-clock time and poll sockets, for [wall]
    seconds. *)
val drive : 'm t -> wall:float -> unit

(** Ceiling on one connection's corked bytes: [max_frame + 8], so any
    frame a reader accepts fits in an empty cork. *)
val cork_hard_limit : int

(** Close every socket (listeners and connections). *)
val shutdown : 'm t -> unit

(** Counters. *)

val encodes : 'm t -> int
val decode_errors : 'm t -> int
val send_failures : 'm t -> int
val frames_received : 'm t -> int
val bytes_sent : 'm t -> int

(** [select] calls made by polls: one per poll. *)
val selects : 'm t -> int

(** Open connection ends: two per in-hub pair of addresses, one per
    connection to or from a foreign peer. *)
val connections : 'm t -> int
