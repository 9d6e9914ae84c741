(** Real-socket implementation of {!Edc_simnet.Transport}.

    A hub multiplexes any number of local addresses (replicas and clients
    of one process) over loopback TCP: address [a] listens on
    [base_port + a], and {!poll} drains readable sockets and dispatches
    complete frames to registered handlers, taking each frame the hub
    writes to an in-hub address straight to its reader.

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
    turn-driven, and a turn is one read of one end.  It dispatches the
    frames the read completes, calls {!Edc_simnet.Sim.end_turn}, then
    visits each end the turn corked, in the order first corked.
    Visiting an end flushes it and, when its other end is in the hub,
    takes the bytes there at once: loopback delivers them before
    [write] returns, so the mate's turn runs, recursively, before the
    turn visits its next end.  An end a deeper turn corks again is
    visited there; one still waiting for its visit here takes the deeper
    turn's frames in the same [write].  A {!poll} first ends the turn
    begun outside it like any other, so what was sent between polls
    travels its whole path at once.  It then makes one [select] over
    every socket (foreign peers, listeners, EOFs and whatever an earlier
    poll left unread), waiting up to the caller's timeout only when it
    has read nothing yet, and takes a turn on every ready end with bytes
    to read.  An end whose read filled the whole 64 KiB chunk gets
    another turn.  A visit reads the mate whenever it has bytes not read
    yet, also when an inline flush past the cork's soft limit wrote them
    mid-turn and the visit itself writes nothing.  A fixed cap of 16
    reads per poll keeps an exchange that never goes quiet from holding
    the caller's loop, but an end's first read in a poll is taken even
    past the cap, so such an exchange starves no other end: a foreign
    peer, an EOF or another pair's frames.  What the cap leaves is
    uncorked before [poll] returns and read at the next poll.  So a
    forwarded write's quorum path runs back to back: request,
    [Forward], then [Propose], [Ack] and [Commit] with the first
    follower, then the reply, six [write]s and [read]s in one poll,
    ahead of its one [select].  The second follower, which the quorum
    does not need, then gets its [Propose] and [Commit] in one [write],
    and its [Ack] comes after the reply.  Work deferred with
    {!Edc_simnet.Sim.defer} — zero-cost {!Edc_simnet.Cpu} work such as a
    leader's pre-processor, then the group-commit batcher's flush — runs
    in the turn that received its input, and its output leaves in the
    same [write]: a leader proposes all of one read's requests as one
    batch.

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

(** [poll t ~timeout] — end the sim's turn as a turn (see above), then
    [select] once, waiting at most [timeout] seconds for something
    readable if that turn read nothing, accept on ready listeners and
    take a turn on every ready end.  Each turn carries what its frames
    cause through the hub depth-first, up to 16 reads in all, besides the
    first read of each end past that cap.  The sim's turn is ended and
    everything uncorked before [poll] returns. *)
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

(** [select] calls made by polls: one per poll, however many turns it
    takes. *)
val selects : 'm t -> int

(** [write] calls made by flushes, including those that found the
    kernel buffer full. *)
val writes : 'm t -> int

(** Open connection ends: two per in-hub pair of addresses, one per
    connection to or from a foreign peer. *)
val connections : 'm t -> int
