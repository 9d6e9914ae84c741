(** Simulated message-passing network.

    Point-to-point messages between integer-addressed nodes with a
    configurable latency model (base one-way latency, multiplicative jitter,
    serialization cost per byte).  Every message carries a modelled wire
    size; the network keeps per-node sent/received byte counters, which the
    evaluation harness uses to reproduce the paper's "data sent by client"
    figures (Figs. 8 and 10).  Links and nodes can be cut to inject
    failures. *)

type addr = int

type 'm handler = src:addr -> size:int -> 'm -> unit

type config = {
  base_latency : Sim_time.t;  (** one-way propagation delay *)
  jitter : float;  (** multiplicative jitter: delay *= 1 + U(0,jitter) *)
  ns_per_byte : float;  (** serialization cost (8.0 ≈ 1 Gbit/s) *)
  loopback_latency : Sim_time.t;  (** delay for self-sends *)
}

let lan_config =
  {
    base_latency = Sim_time.us 100;
    jitter = 0.1;
    ns_per_byte = 8.0;
    loopback_latency = Sim_time.us 2;
  }

(** Wide-area profile used by the geo-distribution ablation (§6.3). *)
let wan_config =
  {
    base_latency = Sim_time.ms 20;
    jitter = 0.05;
    ns_per_byte = 8.0;
    loopback_latency = Sim_time.us 2;
  }

type counters = { mutable sent_bytes : int; mutable recv_bytes : int; mutable sent_msgs : int }

type 'm t = {
  sim : Sim.t;
  config : config;
  rng : Rng.t;
  handlers : (addr, 'm handler) Hashtbl.t;
  down : (addr, unit) Hashtbl.t;
  cut : (addr * addr, unit) Hashtbl.t;
  one_way_cuts : (addr * addr, unit) Hashtbl.t;  (* directed (src, dst) *)
  node_counters : (addr, counters) Hashtbl.t;
  last_delivery : (addr * addr, Sim_time.t) Hashtbl.t;
  mutable total_sent_bytes : int;
  mutable dropped : int;
}

let create ?(config = lan_config) sim =
  {
    sim;
    config;
    rng = Rng.split (Sim.rng sim);
    handlers = Hashtbl.create 64;
    down = Hashtbl.create 8;
    cut = Hashtbl.create 8;
    one_way_cuts = Hashtbl.create 8;
    node_counters = Hashtbl.create 64;
    last_delivery = Hashtbl.create 64;
    total_sent_bytes = 0;
    dropped = 0;
  }

(** [register t addr handler] installs the message handler for a node;
    replaces any previous handler (used when a crashed node restarts). *)
let register t addr handler = Hashtbl.replace t.handlers addr handler

let counters_for t addr =
  match Hashtbl.find_opt t.node_counters addr with
  | Some c -> c
  | None ->
      let c = { sent_bytes = 0; recv_bytes = 0; sent_msgs = 0 } in
      Hashtbl.replace t.node_counters addr c;
      c

let node_is_down t addr = Hashtbl.mem t.down addr

let link_key a b = if a <= b then (a, b) else (b, a)

let link_is_cut t a b =
  Hashtbl.mem t.cut (link_key a b) || Hashtbl.mem t.one_way_cuts (a, b)

(** [set_node_down t addr] makes the node unreachable: messages to or from
    it are silently dropped (crash model). *)
let set_node_down t addr = Hashtbl.replace t.down addr ()

let set_node_up t addr = Hashtbl.remove t.down addr

(** [cut_link t a b] drops all traffic between [a] and [b] (both ways). *)
let cut_link t a b = Hashtbl.replace t.cut (link_key a b) ()

let heal_link t a b = Hashtbl.remove t.cut (link_key a b)

(** [cut_link_one_way t ~src ~dst] drops only [src]→[dst] traffic, leaving
    the reverse direction intact (asymmetric partition: the victim can
    hear the cluster but nobody hears the victim). *)
let cut_link_one_way t ~src ~dst = Hashtbl.replace t.one_way_cuts (src, dst) ()

let heal_link_one_way t ~src ~dst = Hashtbl.remove t.one_way_cuts (src, dst)

let delay_for t ~src ~dst ~size =
  let base =
    if src = dst then t.config.loopback_latency else t.config.base_latency
  in
  (* Exponential (long-tailed) jitter: real networks and OS schedulers
     occasionally delay a message by several times the mean, which is what
     rotates winners between competing closed-loop clients.  Bounded
     uniform jitter lets deterministic phase-locking starve all but one
     contender — an artifact, not a property of the protocols. *)
  let jittered =
    Sim_time.scale base (1.0 +. Rng.exponential t.rng ~mean:t.config.jitter)
  in
  let wire = Sim_time.ns (int_of_float (t.config.ns_per_byte *. float_of_int size)) in
  Sim_time.add jittered wire

(** [send t ~src ~dst ~size msg] transmits [msg].  Bytes are charged to
    [src] at send time (the paper's client-cost metric counts transmitted
    data whether or not the operation succeeds).  Delivery is dropped if
    either endpoint is down or the link is cut. *)
let send t ~src ~dst ~size msg =
  let c = counters_for t src in
  c.sent_bytes <- c.sent_bytes + size;
  c.sent_msgs <- c.sent_msgs + 1;
  t.total_sent_bytes <- t.total_sent_bytes + size;
  if node_is_down t src || node_is_down t dst || link_is_cut t src dst then
    t.dropped <- t.dropped + 1
  else begin
    (* Links are FIFO (TCP-like): a message never overtakes an earlier one
       on the same directed link, even under jitter. *)
    let arrival = Sim_time.add (Sim.now t.sim) (delay_for t ~src ~dst ~size) in
    let arrival =
      match Hashtbl.find_opt t.last_delivery (src, dst) with
      | Some prev when Sim_time.(arrival <= prev) -> Sim_time.add prev (Sim_time.ns 1)
      | _ -> arrival
    in
    Hashtbl.replace t.last_delivery (src, dst) arrival;
    let delay = Sim_time.sub arrival (Sim.now t.sim) in
    Sim.schedule t.sim ~after:delay (fun () ->
        (* Messages already in flight are delivered unless the receiver has
           crashed in the meantime. *)
        if not (node_is_down t dst) then
          match Hashtbl.find_opt t.handlers dst with
          | Some handler ->
              let rc = counters_for t dst in
              rc.recv_bytes <- rc.recv_bytes + size;
              handler ~src ~size msg
          | None -> t.dropped <- t.dropped + 1
        else t.dropped <- t.dropped + 1)
  end

(** [broadcast t ~src ~dsts ~size msg] sends one copy to each destination
    (client multicast in the BFT protocol: bytes charged per copy). *)
let broadcast t ~src ~dsts ~size msg =
  List.iter (fun dst -> send t ~src ~dst ~size msg) dsts

let bytes_sent_by t addr = (counters_for t addr).sent_bytes
let bytes_received_by t addr = (counters_for t addr).recv_bytes
let messages_sent_by t addr = (counters_for t addr).sent_msgs
let total_bytes_sent t = t.total_sent_bytes
let dropped_messages t = t.dropped

(** [reset_counters t] zeroes all byte/message counters; failure state and
    handlers are preserved.  Used to scope measurements to a steady-state
    window. *)
let reset_counters t =
  Hashtbl.reset t.node_counters;
  t.total_sent_bytes <- 0;
  t.dropped <- 0
