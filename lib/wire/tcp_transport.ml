(** Loopback-TCP transport hub (see the interface). *)

open Edc_simnet

(* Hard ceiling on a declared frame length: a stream that claims more is
   corrupt (or hostile) and the connection is dropped — we never allocate
   attacker-declared amounts beyond it. *)
let max_frame = 64 * 1024 * 1024

(* One end of a TCP connection: [owner] corks its frames here and
   receives every frame that arrives here. *)
type conn = {
  fd : Unix.file_descr;
  owner : int;
  peer : int option;
      (** the address at the other end; [None] for a connection a
          listener accepted from a foreign peer, which carries no sends *)
  obuf : Outbuf.t;
  write : Bytes.t -> int -> int -> int;  (** {!Outbuf.flush}'s hook for [fd] *)
  mutable inbuf : Bytes.t;
  mutable in_start : int;  (** first unconsumed byte *)
  mutable in_len : int;  (** one past the last received byte *)
  mutable unread : int;  (** bytes the in-hub mate wrote that are not read yet *)
  mutable read_in : int;  (** the last poll that read this end *)
  mutable live : bool;  (** false once closed *)
  mutable mate : conn option;
      (** the other end of the connection when it is in this hub too:
          bytes written here are read there *)
  mutable queued : bool;  (** on the hub's [corked] stack *)
}

type 'm t = {
  sim : Sim.t;
  base_port : int;
  encode : 'm -> string;
  decode : string -> pos:int -> len:int -> ('m, string) result;
  handlers : (int, 'm Net.handler) Hashtbl.t;
  listeners : (int, Unix.file_descr) Hashtbl.t;  (** local addr -> socket *)
  links : (int, conn) Hashtbl.t;
      (** [link_key owner peer] -> every live end whose [peer] is known *)
  mutable conns : conn array;  (** every live end, what {!poll} reads and uncorks *)
  mutable select_fds : Unix.file_descr list;
      (** listeners and [conns], what {!poll} waits on; both are rebuilt
          only when a socket opens or closes *)
  mutable corked : conn array;
      (** the ends corked since their last flush, in the order first
          corked: a stack of [n_corked] entries (the rest is stale) *)
  mutable n_corked : int;
  mutable budget : int;  (** reads the current poll may still make *)
  mutable polls : int;  (** polls begun, which numbers the current one *)
  mutable n_encodes : int;
  mutable n_decode_errors : int;
  mutable n_send_failures : int;
  mutable n_frames_received : int;
  mutable n_bytes_sent : int;
  mutable n_selects : int;
  mutable n_writes : int;
  mutable closed : bool;
}

let create ~sim ~base_port ~encode ~decode () =
  Sim.set_turn_driven sim;
  (* a write to a peer that has gone must be an [EPIPE] send failure,
     not a signal that kills the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  {
    sim;
    base_port;
    encode;
    decode;
    handlers = Hashtbl.create 16;
    listeners = Hashtbl.create 16;
    links = Hashtbl.create 16;
    conns = [||];
    select_fds = [];
    corked = [||];
    n_corked = 0;
    budget = 0;
    polls = 0;
    n_encodes = 0;
    n_decode_errors = 0;
    n_send_failures = 0;
    n_frames_received = 0;
    n_bytes_sent = 0;
    n_selects = 0;
    n_writes = 0;
    closed = false;
  }

let encodes t = t.n_encodes
let decode_errors t = t.n_decode_errors
let send_failures t = t.n_send_failures
let frames_received t = t.n_frames_received
let bytes_sent t = t.n_bytes_sent
let selects t = t.n_selects
let writes t = t.n_writes
let connections t = Array.length t.conns

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* 177 blocks of 128 ports between 10000 and 32767; each process takes
   24 consecutive blocks (mod 177), starting where its pid says. *)
let local_base_port ~slot =
  if slot < 0 || slot >= 24 then invalid_arg "Tcp_transport.local_base_port";
  let blocks = (32_768 - 10_000) / 128 in
  10_000 + (128 * (((Unix.getpid () * 24) + slot) mod blocks))

(* One int for an (owner, peer) pair, so a send neither allocates nor
   hashes a tuple.  Addresses are below 65536: [base_port + addr] is a
   port. *)
let link_key owner peer = (owner lsl 16) lor peer

let refresh_select_fds t =
  t.select_fds <-
    Hashtbl.fold (fun _ fd acc -> fd :: acc) t.listeners
      (Array.fold_right (fun c acc -> c.fd :: acc) t.conns [])

let register t addr handler =
  if not (Hashtbl.mem t.listeners addr) then begin
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (loopback (t.base_port + addr));
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    Hashtbl.replace t.listeners addr fd;
    refresh_select_fds t
  end;
  Hashtbl.replace t.handlers addr handler

(* Close one end and forget it.  An in-hub peer end sees EOF at its next
   read and closes in turn; until then it has no mate, so a poll reads
   it whenever the select reports it.  The next send between the two
   opens a new pair. *)
let close_conn t c =
  if c.live then begin
    c.live <- false;
    Option.iter (fun m -> m.mate <- None) c.mate;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    Outbuf.clear c.obuf;
    Option.iter (fun p -> Hashtbl.remove t.links (link_key c.owner p)) c.peer;
    t.conns <- Array.of_list (List.filter (fun l -> l != c) (Array.to_list t.conns));
    refresh_select_fds t
  end

(* [write] hook for {!Outbuf.flush}, counted: 0 means "kernel buffer
   full, retry on a later poll"; hard errors propagate to the caller. *)
let write_some t fd b off len =
  t.n_writes <- t.n_writes + 1;
  match Unix.write fd b off len with
  | n -> n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      0

(* Register [fd] as an end owned by [owner].  An end already linked to
   the same peer is stale (its other end was closed, the EOF is not read
   yet) and is closed first, so [links] holds one end per (owner, peer). *)
let add_conn t ~owner ~peer fd =
  Unix.set_nonblock fd;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let c =
    {
      fd;
      owner;
      peer;
      obuf = Outbuf.create ();
      write = write_some t fd;
      inbuf = Bytes.create 65536;
      in_start = 0;
      in_len = 0;
      unread = 0;
      read_in = 0;
      live = true;
      mate = None;
      queued = false;
    }
  in
  Option.iter
    (fun p ->
      let k = link_key owner p in
      Option.iter (close_conn t) (Hashtbl.find_opt t.links k);
      Hashtbl.replace t.links k c)
    peer;
  t.conns <- Array.append t.conns [| c |];
  refresh_select_fds t;
  c

let get_u32 b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

(* Push [c] on the [corked] stack, once until it is visited or flushed. *)
let push_corked t c =
  if not c.queued then begin
    c.queued <- true;
    if t.n_corked = Array.length t.corked then begin
      let bigger = Array.make (Stdlib.max 8 (2 * t.n_corked)) c in
      Array.blit t.corked 0 bigger 0 t.n_corked;
      t.corked <- bigger
    end;
    t.corked.(t.n_corked) <- c;
    t.n_corked <- t.n_corked + 1
  end

(* Flush [c]'s corked bytes.  A partial write retains the unwritten
   suffix; a hard error counts a send failure and closes the end with
   everything queued on it (fire-and-forget, like simulated link loss). *)
let flush_conn t c =
  match Outbuf.flush c.obuf ~write:c.write with
  | n -> (
      t.n_bytes_sent <- t.n_bytes_sent + n;
      match c.mate with Some m -> m.unread <- m.unread + n | None -> ())
  | exception Unix.Unix_error _ ->
      t.n_send_failures <- t.n_send_failures + 1;
      close_conn t c

(* Uncork every end and empty [corked].  One that fails is closed, which
   replaces [t.conns]; the loop walks the array it started with. *)
let flush_all t =
  let conns = t.conns in
  for i = 0 to Array.length conns - 1 do
    let c = conns.(i) in
    if Outbuf.pending c.obuf > 0 then flush_conn t c
  done;
  for i = 0 to t.n_corked - 1 do
    t.corked.(i).queued <- false
  done;
  t.n_corked <- 0

(* If a connection's cork grows past this without a successful flush, we
   try to drain it inline from the send path so memory stays bounded even
   if the caller sends a burst without polling. *)
let cork_soft_limit = 256 * 1024

(* A frame that would take a cork past this even after an inline flush
   means the peer has stopped reading; the connection is dropped as on a
   broken pipe.  Any frame a reader accepts (at most [max_frame] + 4
   bytes) fits in an empty cork. *)
let cork_hard_limit = max_frame + 8

let fits c len = Outbuf.pending c.obuf + 8 + len <= cork_hard_limit

let connect t dst =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (loopback (t.base_port + dst)) with
  | () -> fd
  | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e

(* Accept, from [dst]'s listener [lfd], the connection whose connecting
   end is bound to [local].  Its handshake completed before [connect]
   returned; a foreign connection queued ahead of it becomes an end of
   [dst] with no known peer. *)
let rec accept_end t ~dst lfd local =
  match Unix.accept lfd with
  | fd, from when from = local -> Some fd
  | fd, _ ->
      ignore (add_conn t ~owner:dst ~peer:None fd : conn);
      accept_end t ~dst lfd local
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> (
      match Unix.select [ lfd ] [] [] 1. with
      | [], _, _ -> None
      | _ -> accept_end t ~dst lfd local)

(* The end [src] sends to [dst] on, connected on first use.  When [dst]
   listens in this hub, its end of the same connection is accepted at
   once and becomes the end [dst] sends to [src] on, so the pair's frames
   travel both ways over one socket.  A [dst] outside the hub gets a
   one-sided end. *)
let link t ~src ~dst =
  match Hashtbl.find_opt t.links (link_key src dst) with
  | Some _ as c -> c
  | None -> (
      match
        let fd = connect t dst in
        let c = add_conn t ~owner:src ~peer:(Some dst) fd in
        match Hashtbl.find_opt t.listeners dst with
        | None -> Some c
        | Some lfd -> (
            match accept_end t ~dst lfd (Unix.getsockname fd) with
            | Some afd ->
                (* a self-send's two ends share one key: only its
                   connecting end is linked *)
                let back = if src = dst then None else Some src in
                let d = add_conn t ~owner:dst ~peer:back afd in
                c.mate <- Some d;
                d.mate <- Some c;
                Some c
            | None | (exception Unix.Unix_error _) ->
                close_conn t c;
                None)
      with
      | Some _ as c -> c
      | None | (exception Unix.Unix_error _) ->
          t.n_send_failures <- t.n_send_failures + 1;
          None)

(* Append one framed message to the cork of [src]'s end towards [dst];
   no syscall on this path unless the cork is oversized. *)
let enqueue t ~src ~dst body =
  match link t ~src ~dst with
  | None -> ()
  | Some c ->
      let len = String.length body in
      if not (fits c len) then flush_conn t c;
      if c.live then
        if fits c len then begin
          Outbuf.add_u32 c.obuf (4 + len);
          Outbuf.add_u32 c.obuf src;
          Outbuf.add_substring c.obuf body 0 len;
          push_corked t c;
          if Outbuf.pending c.obuf > cork_soft_limit then flush_conn t c
        end
        else begin
          t.n_send_failures <- t.n_send_failures + 1;
          close_conn t c
        end

(* Fire-and-forget, like the simulated network: any socket error drops the
   message, closes the connection, and replication-level retransmission
   recovers. *)
let send t ~src ~dst ~size:_ msg =
  if not t.closed then begin
    t.n_encodes <- t.n_encodes + 1;
    enqueue t ~src ~dst (t.encode msg)
  end

(* Encode-once broadcast: one serialization, the same bytes corked on
   every destination's connection. *)
let send_many t ~src ~dsts ~size:_ msg =
  if not t.closed then begin
    t.n_encodes <- t.n_encodes + 1;
    let body = t.encode msg in
    List.iter (fun dst -> enqueue t ~src ~dst body) dsts
  end

let transport t =
  {
    Transport.send = send t;
    send_many = send_many t;
    register = register t;
  }

(* Extract every complete frame from [c]'s buffer and dispatch it to its
   owner.  Frames are decoded in place from the reassembly buffer (no
   per-frame copy); [in_start] advances over consumed frames and the
   residue is compacted once per read, not once per frame.  A handler
   may close [c] (a reply whose send fails), which ends the loop. *)
let dispatch t c =
  let again = ref true in
  while !again do
    again := false;
    if c.in_len - c.in_start >= 4 then begin
      let len = get_u32 c.inbuf c.in_start in
      if len < 4 || len > max_frame then begin
        t.n_decode_errors <- t.n_decode_errors + 1;
        close_conn t c (* framing is lost; no way to resync *)
      end
      else if c.in_len - c.in_start >= 4 + len then begin
        let src = get_u32 c.inbuf (c.in_start + 4) in
        let body_pos = c.in_start + 8 in
        let body_len = len - 4 in
        c.in_start <- c.in_start + 4 + len;
        t.n_frames_received <- t.n_frames_received + 1;
        (* The string view of the buffer is only read during this call,
           before any further mutation of [inbuf], so the unsafe cast
           cannot observe a change. *)
        let view = Bytes.unsafe_to_string c.inbuf in
        (match t.decode view ~pos:body_pos ~len:body_len with
        | Error _ -> t.n_decode_errors <- t.n_decode_errors + 1
        | Ok msg -> (
            match Hashtbl.find_opt t.handlers c.owner with
            | Some handler -> handler ~src ~size:body_len msg
            | None -> ()));
        again := c.live
      end
    end
  done;
  if c.live then begin
    let live = c.in_len - c.in_start in
    if c.in_start > 0 then begin
      if live > 0 then Bytes.blit c.inbuf c.in_start c.inbuf 0 live;
      c.in_start <- 0;
      c.in_len <- live
    end
  end

(* Read one chunk from [c] and dispatch what it completes; true when the
   read filled the chunk, so more bytes may be waiting. *)
let read_conn t c =
  let chunk = 65536 in
  if Bytes.length c.inbuf - c.in_len < chunk then begin
    let bigger =
      Bytes.create (Stdlib.max (2 * Bytes.length c.inbuf) (c.in_len + chunk))
    in
    Bytes.blit c.inbuf 0 bigger 0 c.in_len;
    c.inbuf <- bigger
  end;
  match Unix.read c.fd c.inbuf c.in_len chunk with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      false
  | 0 | (exception Unix.Unix_error _) ->
      close_conn t c;
      false
  | n ->
      c.in_len <- c.in_len + n;
      c.unread <- Stdlib.max 0 (c.unread - n);
      dispatch t c;
      n = chunk

(* Attach every connection queued on [addr]'s listener to [addr].  An
   in-hub connection is accepted as it connects, so these come from
   foreign peers. *)
let rec accept_foreign t addr lfd =
  match Unix.accept lfd with
  | fd, _ ->
      ignore (add_conn t ~owner:addr ~peer:None fd : conn);
      accept_foreign t addr lfd
  | exception Unix.Unix_error _ -> ()

(* Reads per poll: a forwarded write takes eight, and the cap keeps an
   exchange that never goes quiet from holding the caller's loop.  An
   end's first read in a poll is taken even past the cap, so no end
   waits behind such an exchange. *)
let max_reads = 16

(* One turn, below the cap or on an end this poll has not read: read
   [c] once and dispatch its frames, then end the turn.  A read that
   filled the chunk gives [c] another. *)
let rec turn t c =
  if c.live && (t.budget > 0 || c.read_in < t.polls) then begin
    t.budget <- t.budget - 1;
    c.read_in <- t.polls;
    let base = t.n_corked in
    let more = read_conn t c in
    end_turn t base;
    if more then turn t c
  end

(* End the sim's turn, then visit the ends pushed on [corked] since
   [base], in order, and pop them.  A visit flushes the end and, if its
   in-hub mate has bytes to read (an inline flush may have sent them),
   runs the mate's turn at once, before the next end.  An end a deeper
   turn corks again waits here, and carries that turn's frames too. *)
and end_turn t base =
  Sim.end_turn t.sim;
  for i = base to t.n_corked - 1 do
    let d = t.corked.(i) in
    d.queued <- false;
    flush_conn t d;
    match d.mate with Some m when m.unread > 0 -> turn t m | _ -> ()
  done;
  t.n_corked <- base

(* Wait up to [timeout] for readable sockets, then take a turn on every
   ready end and accept on every ready listener.  An end whose in-hub
   mate's bytes a turn has already read is skipped, not read for
   [EAGAIN]. *)
let read_ready t timeout =
  t.n_selects <- t.n_selects + 1;
  match Unix.select t.select_fds [] [] timeout with
  | [], _, _ -> ()
  | readable, _, _ ->
      (* walk the ends open at the select: one a handler closes is
         skipped, and one it opens cannot inherit a closed end's
         readiness through a reused descriptor *)
      let conns = t.conns in
      for i = 0 to Array.length conns - 1 do
        let c = conns.(i) in
        if (Option.is_none c.mate || c.unread > 0) && List.mem c.fd readable then
          turn t c
      done;
      Hashtbl.iter
        (fun addr lfd -> if List.mem lfd readable then accept_foreign t addr lfd)
        t.listeners
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* End the turn begun outside the poll like any other, select once
   (without waiting if that turn read anything), take a turn on each
   ready end, and uncork what the cap left. *)
let poll t ~timeout =
  if not t.closed then begin
    t.polls <- t.polls + 1;
    t.budget <- max_reads;
    end_turn t 0;
    read_ready t (if t.budget < max_reads then 0. else timeout);
    Sim.end_turn t.sim;
    flush_all t
  end

let drive t ~wall =
  let t0 = Unix.gettimeofday () in
  let virtual0 = Sim.now t.sim in
  let fin = ref false in
  while not !fin do
    let elapsed = Unix.gettimeofday () -. t0 in
    if elapsed >= wall then fin := true
    else begin
      Sim.run t.sim ~until:(Sim_time.add virtual0 (Sim_time.of_float_s elapsed));
      poll t ~timeout:0.001
    end
  done

let shutdown t =
  if not t.closed then begin
    flush_all t;
    t.closed <- true;
    Hashtbl.iter
      (fun _ fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      t.listeners;
    Array.iter (fun c -> close_conn t c) t.conns;
    Hashtbl.reset t.listeners;
    t.select_fds <- []
  end
