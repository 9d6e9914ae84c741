(** The extension manager (§3.5–§3.8).

    One instance per replica of an extensible coordination service.  Owns
    the registry of extensions and acknowledgment sets, matches operations
    and events against subscriptions, and is the service-independent half
    of every service's glue (§3.6): the ["/em"] naming conventions, the
    admission policy for client writes there ({!admit}), the bookkeeping
    that follows committed ["/em"] objects ({!object_created},
    {!object_deleted}), the recovery reconcile ({!reload}) and the handler
    parameters ({!params}).  A service (EZK, EDS) supplies its request
    classification, its state proxy, how a run commits or rolls back, and
    its hook wiring.  The manager is stateless across faults: everything
    needed to rebuild it lives in ordinary replicated data objects. *)

module Int_set : Set.S with type elt = int

type entry = {
  program : Program.t;
  owner : int;  (** client that registered the extension *)
  code : string;  (** registration bytes; lets reloads skip recompilation *)
  mutable acked : Int_set.t;  (** clients that may trigger it (incl. owner) *)
  reg_seq : int;  (** registration order; later registrations win (§3.3) *)
  compiled_op : Compile.t option;  (** staged at registration time *)
  compiled_ev : Compile.t option;
}

type t

(** The extension manager's own object and naming conventions. *)

val em_root : string
val em_index : string
val extension_object : string -> string
val ack_object : string -> client:int -> string

type em_path = Not_em | Em_root | Em_index | Em_extension of string | Em_ack of string * int

(** What a path under ["/em"] means to the manager. *)
val classify_path : string -> em_path

(** ["/em"] or anything beneath it.  Clients change these objects only
    through {!admit}, extensions never, and they trigger no events. *)
val is_manager_object : string -> bool

(** [create ~mode ()] — [verification_enabled:false] implements §4.2's
    escape hatch: structural limits are waived, but nondeterministic
    builtins remain rejected under active replication (consistency is not
    a policy knob).  Verifier and sandbox use their default limits. *)
val create : ?verification_enabled:bool -> mode:Verify.mode -> unit -> t

val extension_count : t -> int
val find : t -> string -> entry option

(** [apply_registration t ~name ~owner ~code] — verifies and registers;
    runs identically on every replica. *)
val apply_registration :
  t -> name:string -> owner:int -> code:string -> (Program.t, string) result

(** Reloads that reused an already-compiled extension (no recompilation). *)
val compile_reuses : t -> int

val apply_deregistration : t -> name:string -> unit

(** One-time acknowledgment: lets [client] trigger the extension (§3.6). *)
val apply_ack : t -> name:string -> client:int -> unit

val apply_unack : t -> name:string -> client:int -> unit

(** What a client write means to the manager. *)
type admission =
  | Ordinary  (** not a manager object: the service handles it *)
  | Register of string  (** a valid registration of this extension *)
  | Deregister of string  (** the owner removes this extension *)
  | Em_write  (** an accepted ack or un-ack: an ordinary write *)
  | Reject of string  (** refused, with the reason *)

(** [admit t ~client ~kind ~oid ~data] — the one admission policy, over
    the (kind, object id, payload) the service matches subscriptions on.
    Reads are [Ordinary]; manager objects are immutable; code is verified
    before it is proposed; a client acks and un-acks only for itself; only
    the owner deregisters; the rest of ["/em"] is reserved. *)
val admit :
  t -> client:int -> kind:Subscription.op_kind -> oid:string -> data:string -> admission

(** [object_created t ~oid ~owner ~data] / [object_deleted t ~oid] — the
    committed state gained / lost [oid] ([owner] created it): register,
    ack, deregister or un-ack.  Other objects are ignored. *)
val object_created : t -> oid:string -> owner:int -> data:string -> unit

val object_deleted : t -> oid:string -> unit

(** [reload t objects] reconciles the registry with a replica's live
    ["/em"] objects [(oid, owner, data)], in creation order, after a
    restart or snapshot install (§3.8).  Absent registrations are dropped;
    one with unchanged code and owner keeps its compiled handlers and has
    its acks reset; the rest are re-verified; then the acks are applied. *)
val reload : t -> (string * int * string) list -> unit

(** [match_operation t ~client ~kind ~oid] — the extension to run for a
    client request: among extensions the client acknowledged whose
    subscriptions match, the most recently registered wins (§3.3). *)
val match_operation :
  t -> client:int -> kind:Subscription.op_kind -> oid:string -> entry option

(** [match_events t ~kind ~oid] — all subscribed event extensions, in
    registration order (§3.3). *)
val match_events :
  t -> kind:Subscription.event_kind -> oid:string -> entry list

(** Would this request run an operation extension?  [false] at once when
    nothing is registered, the common state on the read path (§6.2). *)
val intercepts :
  t -> client:int -> kind:Subscription.op_kind -> oid:string -> bool

(** Should this client's original notification be suppressed (§5.1.2)? *)
val client_has_event_match :
  t -> client:int -> kind:Subscription.event_kind -> oid:string -> bool

(** Reference implementations: the pre-index linear scans over the whole
    registry, kept for differential tests and bench ablations.  Must agree
    with the indexed matchers on every input. *)

val match_operation_scan :
  t -> client:int -> kind:Subscription.op_kind -> oid:string -> entry option

val match_events_scan :
  t -> kind:Subscription.event_kind -> oid:string -> entry list

val client_has_event_match_scan :
  t -> client:int -> kind:Subscription.event_kind -> oid:string -> bool

(** A handler's parameters: the triggering object, the request or event
    kind, the invoking (or triggering) client, and any payload. *)
val params :
  oid:string -> kind:string -> client:int -> data:string option -> (string * Value.t) list

(** Run an entry's staged operation / event handler. *)
val run_operation :
  t -> entry -> proxy:Sandbox.proxy -> params:(string * Value.t) list ->
  (Value.t, Sandbox.error) result

val run_event :
  t -> entry -> proxy:Sandbox.proxy -> params:(string * Value.t) list ->
  (Value.t, Sandbox.error) result

val registered_names : t -> string list

(** The paper's index-object content (§3.8): the registered names, one
    per line.  Neither service stores it; both reload by scanning. *)
val index_data : t -> string
