(** Table 2, DepSpace column: the abstract API over the DepSpace (and EDS)
    client library via the object-tuple convention
    ({!Edc_depspace.Objects}).

    [await_change]/[signal_change] use an epoch-token scheme in the spirit
    of DepSpace's blocking reads (§5.2.1): the signaller atomically bumps
    an epoch counter tuple and creates a per-epoch token; waiters read the
    counter and issue a blocking [rd] for the *next* token (tokens are
    never removed, so no wakeup can be lost to concurrent bumps). *)

(** [of_client ~extensible c] builds the abstract API; [extensible]
    enables the extension operations (EDS).  [monitor] objects carry the
    lease {!Edc_eds.Eds.monitor_lease} that EDS's server-side monitor
    grants. *)
val of_client : extensible:bool -> Edc_depspace.Ds_client.t -> Coord_api.t

(** [of_session ~extensible s] builds the same API over a resilient
    session: every timeout-bounded operation gets the deadline, backoff
    and safe-resubmission policy of {!Edc_depspace.Ds_session}; blocking
    reads ([block], [await_change], [invoke_block]) pass through
    untouched. *)
val of_session : extensible:bool -> Edc_depspace.Ds_session.t -> Coord_api.t
