(** EXTENSIBLE ZOOKEEPER (EZK, §5.1): the extension manager wired into a
    ZooKeeper replica through the server's hook points.

    {!Manager} holds the service-independent half (["/em"] admission,
    registry bookkeeping, reload).  EZK keeps its request classification,
    its state proxy over the leader's speculative view and passive
    replication: operation extensions run once, at the leader's
    preprocessor, and their changes become one multi-transaction with the
    value piggybacked to the client's replica (§5.1.2).  Extension-matched
    reads go to the leader; regular reads keep the fast path (§6.2).  All
    manager state lives in data objects under ["/em/<name>"] (code, owner,
    acks), so recovery reloads from the tree (§3.6, §3.8).  Event
    extensions run at the leader on committed changes, their effects
    proposed as quiet follow-up transactions; matching clients' watch
    notifications are suppressed. *)

open Edc_zookeeper
open Edc_core

type t

val manager : t -> Manager.t
val server : t -> Server.t

(** [install server] attaches a fresh extension manager to one replica. *)
val install : Server.t -> t

(** [reload t] rebuilds the manager from the committed tree (§3.8): each
    ["/em"] child's code, owner, and acknowledgments. *)
val reload : t -> unit

(** [bootstrap server] creates the ["/em"] object — run once at the
    initial leader. *)
val bootstrap : Server.t -> unit
