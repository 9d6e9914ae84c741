(** DepSpace server replica (the paper's Figure 4 stack): PBFT at the
    bottom, then the EDS extension layer (via hooks), policy enforcement,
    access control, and the tuple space.  Every replica executes every
    ordered request deterministically and replies directly to the client.

    Blocking operations park inside the replicated space; an unblock is
    DepSpace's notion of an event (§5.2.2).  Read-only requests marked
    [fast] are served from local state on a separate core, with expired
    leases filtered out. *)

open Edc_simnet
open Edc_replication
module P = Ds_protocol

type hook_action =
  | Pass
  | Handled of P.result
  | No_reply  (** the extension parked the client (server-side block) *)
  | Rejected of string

type config = { exec_cost : Sim_time.t }

val default_config : config

type t

val create :
  ?config:config ->
  ?pbft_config:Pbft.config ->
  sim:Sim.t ->
  net:P.wire Net.t ->
  id:int ->
  replica_ids:int list ->
  f:int ->
  unit ->
  t

val start : t -> unit
val crash : t -> unit

(** Revive a crashed replica: durable state is kept, PBFT recovery
    re-delivers the ordered suffix the replica missed. *)
val restart : t -> unit

(** Make this replica corrupt its replies (masked by client voting). *)
val set_byzantine : t -> unit

val sim : t -> Sim.t
val space : t -> Space.t
val access : t -> Access.t
val policy : t -> Policy.t
val id : t -> int
val pbft : t -> P.request Pbft.t

(** The unblock cascade after an insert (also used by the EDS extension
    layer when committing deferred inserts). *)
val process_unblocked : t -> ts:Sim_time.t -> Tuple.t -> unit

(** Run one operation through policy, access control, and the space;
    [None] = the call parked. *)
val execute :
  t -> client:int -> rseq:int -> ts:Sim_time.t -> P.op -> P.result option

(** Extension hook points (installed by EDS). *)

val set_hook_intercept :
  t -> (t -> client:int -> rseq:int -> ts:Sim_time.t -> P.op -> hook_action) -> unit

val set_hook_fast_path_allowed : t -> (t -> client:int -> P.op -> bool) -> unit

val set_hook_on_unblock :
  t -> (t -> client:int -> Tuple.template -> Tuple.t -> [ `Proceed | `Reblock ]) -> unit

val set_hook_on_deleted : t -> (t -> ts:Sim_time.t -> Tuple.t -> unit) -> unit

val set_hook_on_inserted :
  t -> (t -> ts:Sim_time.t -> owner:int -> Tuple.t -> unit) -> unit
