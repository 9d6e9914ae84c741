(** PBFT-style Byzantine fault-tolerant state machine replication (the
    DepSpace/BFT-SMaRt substrate).

    [n = 3f + 1] replicas; clients multicast requests to all of them; the
    view's primary assigns sequence numbers and runs the three-phase
    exchange (pre-prepare / prepare / commit with [2f] and [2f + 1]
    quorums); replicas execute in order and reply directly to the client,
    which masks faults by collecting [f + 1] matching replies.

    Each ordered request carries a primary-assigned timestamp, giving
    replicas a deterministic shared clock for lease expiry.

    The view change is simplified for crash/silent faults (it transfers
    the longest delivered history among [2f + 1] VIEW-CHANGE messages
    instead of prepared certificates); see DESIGN.md. *)

open Edc_simnet

type request_id = { client : int; rseq : int }

val request_id_compare : request_id -> request_id -> int

type 'p msg =
  | Pre_prepare of {
      view : int;
      seq : int;
      batch : (request_id * 'p) list;
          (** one consensus instance orders a whole batch, executed
              atomically in batch order on every replica *)
      ts : Sim_time.t;
    }
  | Prepare of { view : int; seq : int }
  | Commit of { view : int; seq : int }
  | View_change of {
      new_view : int;
      delivered : (request_id * 'p) list;
      pending : (request_id * 'p) list;
    }
  | New_view of { view : int }
  | Recover_request
      (** a restarted replica asking the ensemble for the current view *)
  | Recover_reply of { view : int }

type config = {
  batch : Batching.config;
      (** primary-side request batching; {!Batching.per_turn} reproduces
          unbatched behaviour exactly on a simulated run *)
}

val default_config : config

type 'p t

(** [create ~sim ~id ~peers ~f ~send ~on_deliver ()] — one replica.
    [on_deliver] receives each request exactly once, in total order, with
    the primary's timestamp. *)
val create :
  ?config:config ->
  ?send_many:(dsts:int list -> 'p msg -> unit) ->
  sim:Sim.t ->
  id:int ->
  peers:int list ->
  f:int ->
  send:(dst:int -> 'p msg -> unit) ->
  on_deliver:(request_id -> 'p -> ts:Sim_time.t -> unit) ->
  unit ->
  'p t

val start : 'p t -> unit

(** [submit t rid payload] — a client request reached this replica (clients
    multicast); the primary batches and orders it, backups watch for it. *)
val submit : 'p t -> request_id -> 'p -> unit

val handle : 'p t -> src:int -> 'p msg -> unit

val is_primary : 'p t -> bool
val view : 'p t -> int

(** [crash t] silences the replica (crash or Byzantine-mute). *)
val crash : 'p t -> unit

(** [restart t] brings a crashed replica back.  It keeps its durable state
    (delivered history and execution dedup table), asks the ensemble for
    the current view ([Recover_request]), and once [f + 1] replicas answer
    it forces a view change from the highest view it heard; the simplified
    view change transfers the full delivered history, so the rejoiner
    re-executes exactly the suffix it missed (dedup by request id). *)
val restart : 'p t -> unit

val msg_size : payload_size:('p -> int) -> 'p msg -> int
