(** The extension manager (§3.5–§3.8).

    One instance lives next to each replica of an extensible coordination
    service.  It owns the registry of extensions and their acknowledgment
    sets, matches incoming operations/events against subscriptions, and is
    the service-independent front end of the ["/em"] namespace:

    - ["/em"] — the manager's own object; creating ["/em/<name>"] with the
      serialized program as data registers extension [name]; deleting it
      deregisters (§3.6).
    - ["/em/<name>/ack/<client>"] — created by a client to acknowledge an
      extension registered by someone else; only acknowledged (or owned)
      extensions apply to a client's operations.
    - ["/em/index"] — reserved for the paper's index object (§3.8);
      admission refuses writes to it, and no service stores it: EZK
      reloads by scanning the ["/em"] children, EDS the ["/em"] tuples.

    {!admit} is the one admission policy for writes to that namespace,
    {!object_created}/{!object_deleted} the one bookkeeping pair that
    follows the committed state on every replica, and {!reload} the one
    recovery reconcile.  The manager itself is *stateless across faults*:
    everything needed to rebuild it lives in ordinary service data
    objects, protected by the service's own fault-tolerance machinery. *)

module Int_set = Set.Make (Int)

type entry = {
  program : Program.t;
  owner : int;
  code : string;  (** registration bytes; lets reloads skip recompilation *)
  mutable acked : Int_set.t;  (** clients that may trigger it (incl. owner) *)
  reg_seq : int;  (** registration order; later registrations win (§3.3) *)
  compiled_op : Compile.t option;
      (** operation handler staged at registration time (once per replica
          per registration, including snapshot reload) *)
  compiled_ev : Compile.t option;
}

(* The dispatch index: one bucket per (op_kind | event_kind), holding only
   entries that both subscribe to that kind *and* have the corresponding
   handler.  Within a bucket, [Exact] patterns hash on the full oid,
   [Under]/[Starts_with] patterns hash on their prefix (probed once per
   distinct stored prefix length), and [Any_oid] entries are scanned.
   Matching a request costs O(#distinct prefix lengths + hits) instead of
   O(#registered extensions).  Acknowledgment is checked at query time, so
   ack churn never rebuilds the index. *)
type bucket = {
  b_exact : (string, entry list) Hashtbl.t;
  b_prefix : (string, (Subscription.oid_pattern * entry) list) Hashtbl.t;
  mutable b_prefix_lengths : int list;  (** distinct, ascending *)
  mutable b_any : entry list;
}

type index = { op_buckets : bucket array; ev_buckets : bucket array }

type t = {
  mode : Verify.mode;
  verification_enabled : bool;
      (** §4.2 opens the possibility of disabling verification for
          deployments whose constraints prove too restrictive; parsing and
          the determinism check still run (consistency is not optional) *)
  extensions : (string, entry) Hashtbl.t;
  mutable next_reg_seq : int;
  mutable index : index;
  mutable compile_reuses : int;
      (** reloads that kept an entry's staged compiled handlers because the
          registration bytes were unchanged (snapshot-install reloads) *)
}

let em_root = "/em"
let em_index = "/em/index"

let extension_object name = em_root ^ "/" ^ name

let ack_object name ~client = extension_object name ^ "/ack/" ^ string_of_int client

(** [classify_path path] — what a path under ["/em"] means to the manager. *)
type em_path = Not_em | Em_root | Em_index | Em_extension of string | Em_ack of string * int

let classify_path path =
  if not (String.starts_with ~prefix:em_root path) then Not_em
  else if String.equal path em_root then Em_root
  else if String.equal path em_index then Em_index
  else
    match String.split_on_char '/' path with
    | [ ""; "em"; name ] when name <> "" -> Em_extension name
    | [ ""; "em"; name; "ack"; client ] when name <> "" -> (
        (* client ids are non-negative; "/em/x/ack/-1" is not an ack *)
        match int_of_string_opt client with
        | Some c when c >= 0 -> Em_ack (name, c)
        | Some _ | None -> Not_em)
    | _ -> Not_em

(** ["/em"] or anything beneath it, including the service's own
    bookkeeping objects there (e.g. EZK's [owner] child). *)
let is_manager_object path =
  String.equal path em_root || String.starts_with ~prefix:"/em/" path

let new_bucket () =
  {
    b_exact = Hashtbl.create 8;
    b_prefix = Hashtbl.create 8;
    b_prefix_lengths = [];
    b_any = [];
  }

let new_index () =
  {
    op_buckets = Array.init Subscription.n_op_kinds (fun _ -> new_bucket ());
    ev_buckets = Array.init Subscription.n_event_kinds (fun _ -> new_bucket ());
  }

let bucket_add b pattern e =
  match pattern with
  | Subscription.Exact oid ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt b.b_exact oid) in
      Hashtbl.replace b.b_exact oid (e :: cur)
  | Subscription.Under p | Subscription.Starts_with p ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt b.b_prefix p) in
      Hashtbl.replace b.b_prefix p ((pattern, e) :: cur);
      let l = String.length p in
      if not (List.mem l b.b_prefix_lengths) then
        b.b_prefix_lengths <- List.sort Int.compare (l :: b.b_prefix_lengths)
  | Subscription.Any_oid -> b.b_any <- e :: b.b_any

let rebuild_index t =
  let idx = new_index () in
  Hashtbl.iter
    (fun _ e ->
      if e.compiled_op <> None then
        List.iter
          (fun sub ->
            List.iter
              (fun kind ->
                bucket_add
                  idx.op_buckets.(Subscription.op_kind_index kind)
                  sub.Subscription.op_oid e)
              sub.Subscription.op_kinds)
          e.program.Program.op_subs;
      if e.compiled_ev <> None then
        List.iter
          (fun sub ->
            List.iter
              (fun kind ->
                bucket_add
                  idx.ev_buckets.(Subscription.event_kind_index kind)
                  sub.Subscription.ev_oid e)
              sub.Subscription.ev_kinds)
          e.program.Program.event_subs)
    t.extensions;
  t.index <- idx

(* All entries whose subscription (of the bucket's kind) matches [oid],
   possibly with duplicates when several subscriptions of one extension
   match; callers dedupe on [reg_seq], which is unique per entry. *)
let bucket_candidates b oid =
  let acc =
    match Hashtbl.find_opt b.b_exact oid with Some es -> es | None -> []
  in
  let olen = String.length oid in
  let acc =
    List.fold_left
      (fun acc l ->
        if l > olen then acc
        else
          match Hashtbl.find_opt b.b_prefix (String.sub oid 0 l) with
          | None -> acc
          | Some pats ->
              List.fold_left
                (fun acc (pat, e) ->
                  if Subscription.oid_matches pat oid then e :: acc else acc)
                acc pats)
      acc b.b_prefix_lengths
  in
  List.rev_append b.b_any acc

let create ?(verification_enabled = true) ~mode () =
  {
    mode;
    verification_enabled;
    extensions = Hashtbl.create 16;
    next_reg_seq = 0;
    index = new_index ();
    compile_reuses = 0;
  }

let extension_count t = Hashtbl.length t.extensions
let find t name = Hashtbl.find_opt t.extensions name

let registered_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.extensions [] |> List.sort compare

(** Serialized index-object content: one extension name per line. *)
let index_data t = String.concat "\n" (registered_names t)

(** [verify_code t code] — also run by {!admit} *before* a registration
    is proposed, so a bad extension costs no slot in the replicated log. *)
let verify_code t code =
  match Verify.verify ~mode:t.mode code with
  | Ok program -> Ok program
  | Error (`Parse e) -> Error ("parse error: " ^ e)
  | Error (`Violations vs) ->
      if t.verification_enabled then
        Error (String.concat "; " (List.map Verify.violation_to_string vs))
      else (
        (* verification disabled (§4.2): still refuse nondeterminism under
           active replication — that is a consistency requirement, not a
           resource policy *)
        match
          List.filter
            (function Verify.Nondeterministic_builtin _ -> true | _ -> false)
            vs
        with
        | [] -> (
            match Codec.deserialize code with
            | Ok program -> Ok program
            | Error e -> Error ("parse error: " ^ e))
        | hard ->
            Error (String.concat "; " (List.map Verify.violation_to_string hard)))

(** [apply_registration t ~name ~owner ~code] — called when the committed
    state gains ["/em/<name>"].  Runs on every replica (and again on
    recovery reload); re-verifies because replicas never trust bytes. *)
let apply_registration t ~name ~owner ~code =
  match verify_code t code with
  | Error _ as e -> e
  | Ok program ->
      if program.Program.name <> name then Error "name mismatch"
      else begin
        let reg_seq = t.next_reg_seq in
        t.next_reg_seq <- reg_seq + 1;
        (* stage the handlers now, while we are off the request path;
           every later trigger reuses the compiled form *)
        let compiled_op = Option.map Compile.compile program.Program.on_operation in
        let compiled_ev = Option.map Compile.compile program.Program.on_event in
        Hashtbl.replace t.extensions name
          {
            program;
            owner;
            code;
            acked = Int_set.singleton owner;
            reg_seq;
            compiled_op;
            compiled_ev;
          };
        rebuild_index t;
        Ok program
      end

let compile_reuses t = t.compile_reuses

let apply_deregistration t ~name =
  if Hashtbl.mem t.extensions name then begin
    Hashtbl.remove t.extensions name;
    rebuild_index t
  end

(** [apply_ack t ~name ~client] — the client has acknowledged use of the
    extension (one-time, §3.6).  Ack churn only touches the entry's set;
    the dispatch index is untouched. *)
let apply_ack t ~name ~client =
  match Hashtbl.find_opt t.extensions name with
  | Some e -> e.acked <- Int_set.add client e.acked
  | None -> ()

let apply_unack t ~name ~client =
  match Hashtbl.find_opt t.extensions name with
  | Some e -> e.acked <- Int_set.remove client e.acked
  | None -> ()

let client_acked e ~client = Int_set.mem client e.acked

(* ------------------------------------------------------------------ *)
(* The /em front end (§3.6): admission and bookkeeping                 *)
(* ------------------------------------------------------------------ *)

type admission =
  | Ordinary
  | Register of string
  | Deregister of string
  | Em_write
  | Reject of string

let admit t ~client ~kind ~oid ~data =
  match kind with
  | Subscription.K_read | K_sub_objects | K_block -> Ordinary
  | K_update | K_cas ->
      if is_manager_object oid then Reject "extension objects are immutable"
      else Ordinary
  | K_create | K_delete -> (
      if not (is_manager_object oid) then Ordinary
      else
        let creating = kind = Subscription.K_create in
        match classify_path oid with
        | Em_extension name when creating -> (
            match verify_code t data with
            | Error msg -> Reject msg
            | Ok program when program.Program.name <> name -> Reject "name mismatch"
            | Ok _ when Hashtbl.mem t.extensions name -> Reject "already registered"
            | Ok _ -> Register name)
        | Em_extension name -> (
            match find t name with
            | None -> Reject "unknown extension"
            | Some e when e.owner <> client -> Reject "only the owner may deregister"
            | Some _ -> Deregister name)
        | Em_ack (_, c) when c <> client ->
            Reject
              (if creating then "may only ack for oneself"
               else "may only un-ack for oneself")
        | Em_ack (name, _) when creating && not (Hashtbl.mem t.extensions name) ->
            Reject "unknown extension"
        | Em_ack _ -> Em_write
        | Em_root | Em_index | Not_em -> Reject "reserved object")

(* Runs identically on every replica during ordered execution, which is
   how all replicas' managers stay consistent. *)
let object_created t ~oid ~owner ~data =
  match classify_path oid with
  | Em_extension name -> (
      match apply_registration t ~name ~owner ~code:data with
      | Ok _ -> ()
      | Error msg -> Logs.warn (fun m -> m "replica refused extension %s: %s" name msg))
  | Em_ack (name, client) -> apply_ack t ~name ~client
  | Em_root | Em_index | Not_em -> ()

let object_deleted t ~oid =
  match classify_path oid with
  | Em_extension name -> apply_deregistration t ~name
  | Em_ack (name, client) -> apply_unack t ~name ~client
  | Em_root | Em_index | Not_em -> ()

(** [reload t objects] reconciles the registry with the live ["/em"]
    objects [(oid, owner, data)] of a restarted or freshly installed
    replica (§3.8), given in creation order. *)
let reload t objects =
  let live =
    List.filter_map
      (fun (oid, owner, code) ->
        match classify_path oid with
        | Em_extension name -> Some (name, owner, code)
        | Em_ack _ | Em_root | Em_index | Not_em -> None)
      objects
  in
  List.iter
    (fun name ->
      if not (List.exists (fun (n, _, _) -> String.equal n name) live) then
        apply_deregistration t ~name)
    (registered_names t);
  List.iter
    (fun (name, owner, code) ->
      match Hashtbl.find_opt t.extensions name with
      | Some e when String.equal e.code code && e.owner = owner ->
          (* unchanged: keep the verified program and compiled handlers,
             or a chunked snapshot install would recompile every extension
             on every catch-up; the objects are the authority on acks *)
          e.acked <- Int_set.singleton owner;
          t.compile_reuses <- t.compile_reuses + 1
      | _ -> (
          match apply_registration t ~name ~owner ~code with
          | Ok _ -> ()
          | Error msg -> Logs.warn (fun m -> m "reload refused extension %s: %s" name msg)))
    live;
  List.iter
    (fun (oid, _, _) ->
      match classify_path oid with
      | Em_ack (name, client) -> apply_ack t ~name ~client
      | Em_extension _ | Em_root | Em_index | Not_em -> ())
    objects

(** [match_operation t ~client ~kind ~oid] finds the extension to run for a
    client request: among extensions the client acknowledged whose
    operation subscriptions match, the most recently registered wins
    (execution model of §3.3). *)
let match_operation t ~client ~kind ~oid =
  let b = t.index.op_buckets.(Subscription.op_kind_index kind) in
  List.fold_left
    (fun best e ->
      if client_acked e ~client then
        match best with
        | Some b when b.reg_seq > e.reg_seq -> best
        | _ -> Some e
      else best)
    None (bucket_candidates b oid)

(** [intercepts t ~client ~kind ~oid] — would this request run an
    operation extension?  Answers at once when nothing is registered, the
    overwhelmingly common state on the regular read path (§6.2). *)
let intercepts t ~client ~kind ~oid =
  Hashtbl.length t.extensions <> 0 && match_operation t ~client ~kind ~oid <> None

(** [match_events t ~kind ~oid] returns all event extensions subscribed to
    this state change, in registration order (§3.3: "one after another, in
    the order of their registration"). *)
let match_events t ~kind ~oid =
  let b = t.index.ev_buckets.(Subscription.event_kind_index kind) in
  bucket_candidates b oid
  |> List.sort_uniq (fun a b -> Int.compare a.reg_seq b.reg_seq)

(** [client_has_event_match t ~client ~kind ~oid] — used to decide whether
    a client's original notification should be suppressed (§5.1.2). *)
let client_has_event_match t ~client ~kind ~oid =
  Hashtbl.length t.extensions <> 0
  &&
  let b = t.index.ev_buckets.(Subscription.event_kind_index kind) in
  List.exists (fun e -> client_acked e ~client) (bucket_candidates b oid)

(* Reference implementations: the pre-index linear scans, kept for
   differential tests and the indexed-vs-scan bench ablation. *)

let match_operation_scan t ~client ~kind ~oid =
  Hashtbl.fold
    (fun _ e best ->
      if
        client_acked e ~client
        && e.program.Program.on_operation <> None
        && List.exists
             (fun sub -> Subscription.op_matches sub ~kind ~oid)
             e.program.Program.op_subs
      then
        match best with
        | Some b when b.reg_seq > e.reg_seq -> best
        | _ -> Some e
      else best)
    t.extensions None

let match_events_scan t ~kind ~oid =
  Hashtbl.fold
    (fun _ e acc ->
      if
        e.program.Program.on_event <> None
        && List.exists
             (fun sub -> Subscription.ev_matches sub ~kind ~oid)
             e.program.Program.event_subs
      then e :: acc
      else acc)
    t.extensions []
  |> List.sort (fun a b -> Int.compare a.reg_seq b.reg_seq)

let client_has_event_match_scan t ~client ~kind ~oid =
  Hashtbl.fold
    (fun _ e acc ->
      acc
      || (client_acked e ~client
         && e.program.Program.on_event <> None
         && List.exists
              (fun sub -> Subscription.ev_matches sub ~kind ~oid)
              e.program.Program.event_subs))
    t.extensions false

(** [params ~oid ~kind ~client ~data] — a handler's parameters: the
    triggering object, the request or event kind, the invoking (or
    triggering) client, and the payload when there is one. *)
let params ~oid ~kind ~client ~data =
  ("oid", Value.Str oid) :: ("kind", Value.Str kind) :: ("client", Value.Int client)
  :: (match data with Some d -> [ ("data", Value.Str d) ] | None -> [])

(** [run_operation t entry ~proxy ~params] executes the staged operation
    handler (compiled at registration time). *)
let run_operation _t entry ~proxy ~params =
  match entry.compiled_op with
  | None -> Error (Sandbox.Aborted "no operation handler")
  | Some c -> Result.map (fun (v, _, _) -> v) (Compile.run ~proxy ~params c)

let run_event _t entry ~proxy ~params =
  match entry.compiled_ev with
  | None -> Error (Sandbox.Aborted "no event handler")
  | Some c -> Result.map (fun (v, _, _) -> v) (Compile.run ~proxy ~params c)
