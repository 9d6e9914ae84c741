(** EXTENSIBLE DEPSPACE (EDS, §5.2): the extension manager installed as a
    new layer at the bottom of the DepSpace replica stack.

    {!Manager} holds the service-independent half (["/em"] admission,
    registry bookkeeping, reload).  EDS keeps its request classification,
    its state proxy and active replication: matched operation extensions
    run on *every* replica (the verifier rejects nondeterminism), their
    proxied operations re-enter the policy and access-control layers, and
    their mutations apply under an undo log that aborts roll back.
    Registration is an ordinary [out] of [</em/name, code, ...>];
    replicas rebuild managers by scanning the replicated space (§3.8). *)

open Edc_simnet
open Edc_depspace
open Edc_core

type t

val manager : t -> Manager.t
val server : t -> Ds_server.t

(** The lease the proxy's [monitor] grants (8 s).  Clients renew it with
    {!Eds_client.keep_alive} at this same lease. *)
val monitor_lease : Sim_time.t

(** [install server] attaches a fresh extension manager. *)
val install : Ds_server.t -> t

(** [reload t] rebuilds the manager by scanning the space (§3.8). *)
val reload : t -> unit
