(** ZooKeeper client library.

    One client object = one network endpoint = one session.  Calls block
    the calling fiber (direct style over {!Edc_simnet.Proc}), mirroring the
    synchronous client API the paper's recipes are written against. *)

open Edc_simnet
module P = Protocol

type config = { request_timeout : Sim_time.t; ping_interval : Sim_time.t }

val default_config : config

type t

val create :
  ?config:config ->
  sim:Sim.t ->
  net:Server.wire Transport.t ->
  addr:int ->
  replica:int ->
  unit ->
  t

val session : t -> int
val addr : t -> int
val requests_sent : t -> int
val is_connected : t -> bool

(** Requests sent and still awaiting a reply or their timeout. *)
val outstanding : t -> int

(** [connect t] establishes the session; retries until the cluster
    answers. *)
val connect : t -> unit

(** [reconnect t ~replica] re-attaches the existing session to another
    replica (client failover). *)
val reconnect : t -> replica:int -> bool

(** [request t op] — one raw operation: {!request_async} awaited.
    Blocking calls ([Block]) wait indefinitely, everything else times out
    with [Error Timeout]; without a session, [Error Session_expired] at
    once. *)
val request : t -> P.op -> P.result

(** [request_async t op] — issue without blocking; the promise fulfills
    with the result, or [Error Timeout] exactly [request_timeout] after
    the send ([Block] never times out).  The timeout is a {!Sim.timer}
    held beside the promise and cancelled when the reply arrives, so the
    event heap carries one timer per request still in flight, none per
    request answered.  One fiber can keep a window of requests in flight:
    the TCP transport corks the window into a single write and replies
    pipeline back. *)
val request_async : t -> P.op -> P.result Proc.promise

(** [watch_waiter t path] registers interest in the next event on [path];
    call it *before* the read that arms the server-side watch. *)
val watch_waiter : t -> string -> (string * P.watch_kind) Proc.promise

(** [set_on_watch_event t f] — [f path kind] fires on every watch event
    delivered to this client, independent of {!watch_waiter} parking.
    Used by {!Session} as the cache-invalidation feed. *)
val set_on_watch_event : t -> (string -> P.watch_kind -> unit) -> unit

(** Convenience wrappers (Table 2, ZooKeeper column). *)

val create_node :
  t -> ?ephemeral:bool -> ?sequential:bool -> string -> string ->
  (string, Zerror.t) result

val delete : t -> ?version:int -> string -> (unit, Zerror.t) result
val set_data : t -> ?expected_version:int -> string -> string -> (int, Zerror.t) result
val get_data : t -> ?watch:bool -> string -> (string * Znode.stat, Zerror.t) result
val get_children : t -> ?watch:bool -> string -> (string list, Zerror.t) result
val exists : t -> ?watch:bool -> string -> (Znode.stat option, Zerror.t) result

(** [sync t] — read-your-writes barrier: replies only after the replica
    this client is connected to has applied every update ordered before
    the barrier (travels through the leader's commit path). *)
val sync : t -> (unit, Zerror.t) result

(** [multi t ops] — atomic multi-write: all ops apply or none do.  On a
    sharded deployment, ops spanning shards commit via two-phase commit
    (§6j); [Error Txn_conflict] means the transaction aborted everywhere. *)
val multi :
  t -> Edc_replication.Two_pc.wop list -> (unit, Zerror.t) result

(** [block t path] — Table 2's [block(o)] for plain ZooKeeper: exists-watch
    plus wait for the creation event (client-side, multiple steps). *)
val block : t -> string -> (unit, Zerror.t) result

(** [server_block t path] — EZK's single-RPC blocking read (needs a
    matching operation extension); returns the created object's data. *)
val server_block : t -> string -> (string, Zerror.t) result

(** [monitor t path] — Table 2's [monitor(x, o)]: an ephemeral node tied to
    this session's liveness. *)
val monitor : t -> string -> (string, Zerror.t) result

val close : t -> unit
