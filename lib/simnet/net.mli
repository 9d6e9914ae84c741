(** Simulated message-passing network.

    Point-to-point messages between integer-addressed nodes.  Links are
    FIFO (TCP-like); delay = base latency × (1 + exponential jitter) +
    per-byte serialization.  Every message carries a modelled wire size,
    and per-node sent/received byte counters back the paper's
    "data sent by client" metric (Figs. 8/10).  Nodes and links can be
    taken down to inject failures. *)

type addr = int
type 'm handler = src:addr -> size:int -> 'm -> unit

type config = {
  base_latency : Sim_time.t;  (** one-way propagation delay *)
  jitter : float;  (** mean of the exponential multiplicative jitter *)
  ns_per_byte : float;  (** serialization cost (8.0 ≈ 1 Gbit/s) *)
  loopback_latency : Sim_time.t;  (** delay for self-sends *)
}

(** Data-center profile (the paper's switched Gigabit Ethernet). *)
val lan_config : config

(** Wide-area profile for the geo-distribution ablation (§6.3). *)
val wan_config : config

type 'm t

val create : ?config:config -> Sim.t -> 'm t

(** [register t addr handler] installs (or replaces) a node's handler. *)
val register : 'm t -> addr -> 'm handler -> unit

(** [send t ~src ~dst ~size msg] transmits one message.  Bytes are charged
    to [src] at send time; delivery is dropped if either endpoint is down
    or the link is cut. *)
val send : 'm t -> src:addr -> dst:addr -> size:int -> 'm -> unit

(** [broadcast t ~src ~dsts ~size msg] sends one copy per destination
    (bytes charged per copy — the BFT client multicast cost). *)
val broadcast : 'm t -> src:addr -> dsts:addr list -> size:int -> 'm -> unit

(** Failure injection. *)

val set_node_down : 'm t -> addr -> unit
val set_node_up : 'm t -> addr -> unit
val cut_link : 'm t -> addr -> addr -> unit
val heal_link : 'm t -> addr -> addr -> unit

(** [cut_link_one_way t ~src ~dst] drops only [src]→[dst] traffic
    (asymmetric partition); the reverse direction keeps flowing. *)
val cut_link_one_way : 'm t -> src:addr -> dst:addr -> unit

val heal_link_one_way : 'm t -> src:addr -> dst:addr -> unit

(** Accounting. *)

val bytes_sent_by : 'm t -> addr -> int
val bytes_received_by : 'm t -> addr -> int
val messages_sent_by : 'm t -> addr -> int
val total_bytes_sent : 'm t -> int
val dropped_messages : 'm t -> int

(** [reset_counters t] zeroes the byte/message counters only. *)
val reset_counters : 'm t -> unit
