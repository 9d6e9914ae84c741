(** Real-socket implementation of {!Edc_simnet.Transport}.

    A hub multiplexes any number of local addresses (replicas and clients
    of one process) over loopback TCP: address [a] listens on
    [base_port + a], sends open one outbound connection per (src, dst)
    pair, and {!poll} drains readable sockets and dispatches complete
    frames to registered handlers.

    Stream framing (independent of the {!Wire} frame inside):

    {v [u32 BE frame length] [u32 BE source address] [message bytes] v}

    where the length covers the source word and the message.  Reads are
    buffered per connection, so frames split across TCP segments are
    reassembled, and complete frames are decoded {e in place} from the
    reassembly buffer (no per-frame copy); malformed messages (decoder
    [Error]) and oversized declared lengths are counted and dropped
    without raising — the wire is as untrusted as in-sim bytes.

    Sends are {e corked}: each outbound connection owns an {!Outbuf},
    [send] appends a framed message to it without a syscall, and the
    cork is flushed once per {!poll} / {!drive} step, so an N-message
    burst costs one [write].  Partial writes retain the unwritten suffix
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
    turn-driven, and each {!poll} calls {!Edc_simnet.Sim.end_turn} before
    each of its two uncorks.  Work deferred with
    {!Edc_simnet.Sim.defer} — the group-commit batcher's flush — thus
    sees everything the turn received, and its output leaves in the same
    [write]: a leader proposes all of one poll's requests as one batch.

    The event loop bridges wall clock and virtual clock: {!drive} runs the
    simulator's timers against elapsed real time and polls the sockets in
    between, so unmodified [Sim]-scheduled replica code (heartbeats,
    elections, client fibers) runs in real time. *)

type 'm t

(** [create ~sim ~base_port ~encode ~decode ()] — a hub for one process;
    marks [sim] as turn-driven (see above), so [sim] must be polled.
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

(** The {!Edc_simnet.Transport} view: hand this to servers and clients. *)
val transport : 'm t -> 'm Edc_simnet.Transport.t

(** [poll t ~timeout] — end the turn and uncork; then accept, read,
    reassemble, dispatch; then end that turn and uncork again.  Waits at
    most [timeout] seconds for something readable. *)
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
