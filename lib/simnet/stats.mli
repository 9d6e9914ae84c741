(** Measurement accumulators for the evaluation harness. *)

(** Streaming summary statistics (Welford). *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val pp : Format.formatter -> t -> unit
end

(** Sample series with exact percentiles (sorted on demand). *)
module Series : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float

  (** Nearest-rank percentile, [p] in [0, 100]. *)
  val percentile : t -> float -> float

  val median : t -> float
  val p99 : t -> float
  val min : t -> float
  val max : t -> float
  val clear : t -> unit
end

(** Event counter with rate conversion over a simulated window. *)
module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val clear : t -> unit

  (** Events per second of simulated time. *)
  val rate : t -> window:Sim_time.t -> float
end
