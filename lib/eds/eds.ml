(** EXTENSIBLE DEPSPACE (EDS, §5.2).

    Installs an extension manager as a new layer at the bottom of the
    DepSpace replica stack (Figure 4).  The service-independent half — the
    ["/em"] admission policy, registry bookkeeping, recovery reconcile and
    handler parameters — lives in {!Manager}; this module keeps what is
    DepSpace's own:

    - the request classification ([op_info]) and the state proxy.
      Operations issued by extensions go back through the
      policy-enforcement and access-control layers, exactly as the paper
      requires ("the extension manager does not need to provide additional
      access-control mechanisms for operations invoked by extensions as
      this task is performed by upper layers");
    - active replication: all ordered client requests pass the extension
      layer first, and matched operation extensions run in the sandbox
      *on every replica*, so the verifier runs in deterministic mode;
    - atomicity by an undo log: proxied mutations apply to the live space
      immediately but are recorded; if the sandbox aborts, the log is
      rolled back — deterministically on every replica — and the client
      receives an error.  Unblock cascades and deletion events for
      extension-issued changes are deferred to successful completion, so
      nothing leaks from an aborted run;
    - events: deletions (including lease expiry) and unblocked reads, the
      latter able to re-block the caller (§5.2.2).

    Extension state is tuples: registering means [out]-ing the object
    [</em/name, code, 0, ts>], whose tuple owner is the registering
    client; acknowledgments are [</em/name/ack/c, ...>] objects;
    deregistering takes the registration tuple back out.  All replicas
    observe these inserts/removals during ordered execution and update
    their managers identically; a recovering replica rebuilds its manager
    by scanning the space (§3.8). *)

open Edc_simnet
open Edc_depspace
open Edc_core
module P = Ds_protocol

type t = {
  server : Ds_server.t;
  manager : Manager.t;
  mutable in_event : bool;  (** break event-extension feedback loops *)
}

let monitor_lease = Sim_time.sec 8

let manager t = t.manager
let server t = t.server

(* ------------------------------------------------------------------ *)
(* Operation classification                                            *)
(* ------------------------------------------------------------------ *)

(** [(kind, oid, data)] for subscription matching: the object id is the
    first (string) field of the tuple or template. *)
let op_info op =
  let open Subscription in
  match op with
  | P.Out { tuple; _ } -> (
      match Access.tuple_name tuple with
      | Some oid ->
          let data =
            match Objects.decode tuple with Some v -> v.Objects.data | None -> ""
          in
          Some (K_create, oid, data)
      | None -> None)
  | P.Rdp tp -> Option.map (fun oid -> (K_read, oid, "")) (Access.template_name tp)
  | P.Rd_all tp ->
      (* a prefix template is the sub-object enumeration *)
      Option.map (fun oid -> (K_sub_objects, oid, "")) (Access.template_name tp)
  | P.Rd tp -> Option.map (fun oid -> (K_block, oid, "")) (Access.template_name tp)
  | P.Inp tp | P.In_ tp ->
      Option.map (fun oid -> (K_delete, oid, "")) (Access.template_name tp)
  | P.Replace { template; tuple } | P.Cas { template; tuple } -> (
      match Access.template_name template with
      | Some oid ->
          let data =
            match Objects.decode tuple with Some v -> v.Objects.data | None -> ""
          in
          Some (K_cas, oid, data)
      | None -> None)
  | P.Renew _ | P.Noop -> None

(* ------------------------------------------------------------------ *)
(* The state proxy with undo log                                       *)
(* ------------------------------------------------------------------ *)

type run_ctx = {
  mutable undo : (unit -> unit) list;  (** newest first *)
  mutable inserted : Tuple.t list;  (** newest first; unblock on success *)
  mutable deleted : Tuple.t list;  (** deletion events on success *)
  mutable parked : bool;
}

let new_ctx () = { undo = []; inserted = []; deleted = []; parked = false }

let guard t ~client ~kind ~name ~tuple ~template =
  let space = Ds_server.space t.server in
  let view =
    { Policy.v_client = client; v_kind = kind; v_tuple = tuple; v_template = template }
  in
  match Policy.check (Ds_server.policy t.server) space view with
  | Error why -> Error ("policy: " ^ why)
  | Ok () ->
      if Access.check (Ds_server.access t.server) ~client ~kind ~name then Ok ()
      else Error "access denied"

let make_proxy t ~client ~ts ~blocker ~ctx =
  let space = Ds_server.space t.server in
  let raw_insert ?lease tuple =
    let expiry = Option.map (fun d -> Sim_time.add ts d) lease in
    ignore (Space.insert space ~owner:client ~expiry tuple : int);
    ctx.undo <-
      (fun () -> ignore (Space.take space (Tuple.exact tuple) : Tuple.t option))
      :: ctx.undo;
    ctx.inserted <- tuple :: ctx.inserted
  in
  let raw_take template =
    match Space.take space template with
    | Some old ->
        ctx.undo <-
          (fun () -> ignore (Space.insert space ~owner:client ~expiry:None old : int))
          :: ctx.undo;
        Some old
    | None -> None
  in
  let read_obj oid =
    match Space.find_tuple space (Objects.template oid) with
    | Some tuple -> Objects.decode tuple
    | None -> None
  in
  let deny_em oid =
    if Manager.is_manager_object oid then Error "extensions may not touch /em"
    else Ok ()
  in
  let ( let* ) = Result.bind in
  {
    Sandbox.p_read =
      (fun oid ->
        let* () = guard t ~client ~kind:Access.Read ~name:(Some oid) ~tuple:None
                    ~template:(Some (Objects.template oid)) in
        match read_obj oid with
        | Some v ->
            Ok (Value.obj ~id:v.Objects.oid ~data:v.Objects.data
                  ~version:v.Objects.version ~ctime:v.Objects.ctime)
        | None -> Error ("no object " ^ oid));
    p_exists = (fun oid -> Space.find space (Objects.template oid) <> None);
    p_sub_objects =
      (fun oid ->
        let* () = guard t ~client ~kind:Access.Read ~name:(Some (oid ^ "/"))
                    ~tuple:None ~template:(Some (Objects.sub_template oid)) in
        Ok
          (Space.read_all space (Objects.sub_template oid)
          |> List.filter_map Objects.decode
          |> List.map (fun v ->
                 Value.obj ~id:v.Objects.oid ~data:v.Objects.data
                   ~version:v.Objects.version ~ctime:v.Objects.ctime)));
    p_create =
      (fun ~sequential ~oid ~data ->
        let* () = deny_em oid in
        let* () = guard t ~client ~kind:Access.Write ~name:(Some oid)
                    ~tuple:(Some (Objects.tuple ~oid ~data ~version:0
                                    ~ctime:(Sim_time.to_ns ts)))
                    ~template:None in
        let* oid =
          if not sequential then
            if read_obj oid <> None then Error "exists" else Ok oid
          else begin
            (* mint the next sequential suffix from the counter tuple *)
            let n =
              match Space.find_tuple space (Objects.seq_template oid) with
              | Some Tuple.[ Str _; Int n ] -> n
              | Some _ | None -> 0
            in
            ignore (raw_take (Objects.seq_template oid) : Tuple.t option);
            raw_insert (Objects.seq_tuple ~oid ~n:(n + 1));
            Ok (oid ^ Objects.sequence_suffix n)
          end
        in
        raw_insert (Objects.tuple ~oid ~data ~version:0 ~ctime:(Sim_time.to_ns ts));
        Ok oid);
    p_update =
      (fun ~oid ~data ->
        let* () = deny_em oid in
        let* () = guard t ~client ~kind:Access.Write ~name:(Some oid)
                    ~tuple:(Some (Objects.tuple ~oid ~data ~version:0 ~ctime:0))
                    ~template:(Some (Objects.template oid)) in
        match raw_take (Objects.template oid) with
        | Some old -> (
            match Objects.decode old with
            | Some v ->
                let version = v.Objects.version + 1 in
                raw_insert (Objects.tuple ~oid ~data ~version ~ctime:v.Objects.ctime);
                Ok version
            | None -> Error "not an object tuple")
        | None -> Error ("no object " ^ oid));
    p_cas =
      (fun ~oid ~expected ~data ->
        let* () = deny_em oid in
        let* () = guard t ~client ~kind:Access.Write ~name:(Some oid)
                    ~tuple:(Some (Objects.tuple ~oid ~data ~version:0 ~ctime:0))
                    ~template:(Some (Objects.template oid)) in
        match read_obj oid with
        | None -> Error ("no object " ^ oid)
        | Some v ->
            if not (String.equal v.Objects.data expected) then Ok false
            else begin
              ignore (raw_take (Objects.template oid) : Tuple.t option);
              raw_insert
                (Objects.tuple ~oid ~data ~version:(v.Objects.version + 1)
                   ~ctime:v.Objects.ctime);
              Ok true
            end);
    p_delete =
      (fun oid ->
        let* () = deny_em oid in
        let* () = guard t ~client ~kind:Access.Take ~name:(Some oid) ~tuple:None
                    ~template:(Some (Objects.template oid)) in
        match raw_take (Objects.template oid) with
        | Some old ->
            ctx.deleted <- old :: ctx.deleted;
            Ok true
        | None -> Ok false);
    p_block =
      (fun oid ->
        match blocker with
        | Some rseq ->
            if read_obj oid <> None then
              (* already there: the handler's own return value answers the
                 client immediately *)
              Ok ()
            else begin
              let handle =
                Space.park space ~client ~rseq ~template:(Objects.template oid)
                  ~take:false
              in
              ctx.undo <- (fun () -> Space.unpark space handle) :: ctx.undo;
              ctx.parked <- true;
              Ok ()
            end
        | None -> Error "block is only available to operation extensions");
    p_monitor =
      (fun oid ->
        let* () = deny_em oid in
        if read_obj oid <> None then Ok ()
        else begin
          raw_insert ~lease:monitor_lease
            (Objects.tuple ~oid ~data:"" ~version:0 ~ctime:(Sim_time.to_ns ts));
          Ok ()
        end);
    p_notify = (fun ~client:_ ~oid:_ -> Error "DepSpace has no notification channel");
    p_clock = (fun () -> Sim_time.to_ns ts);
  }

let rollback ctx = List.iter (fun undo -> undo ()) ctx.undo

(* ------------------------------------------------------------------ *)
(* Event extensions + commit (mutually recursive through deletion
   events)                                                             *)
(* ------------------------------------------------------------------ *)

let rec run_event_extensions t ~ts ~kind ~oid ~trigger_client =
  if not t.in_event then begin
    t.in_event <- true;
    Fun.protect ~finally:(fun () -> t.in_event <- false) @@ fun () ->
    let params =
      Manager.params ~oid ~kind:(Subscription.event_kind_to_string kind)
        ~client:trigger_client ~data:None
    in
    List.iter
      (fun (entry : Manager.entry) ->
        let ctx = new_ctx () in
        let proxy = make_proxy t ~client:entry.Manager.owner ~ts ~blocker:None ~ctx in
        match Manager.run_event t.manager entry ~proxy ~params with
        | Ok _ ->
            (* fire unblock cascades; in_event stops recursive events *)
            List.iter
              (fun tuple -> Ds_server.process_unblocked t.server ~ts tuple)
              (List.rev ctx.inserted)
        | Error e ->
            rollback ctx;
            Logs.warn (fun m ->
                m "EDS event extension %s failed: %s"
                  entry.Manager.program.Program.name (Sandbox.error_to_string e)))
      (Manager.match_events t.manager ~kind ~oid)
  end

and deletion_event t ~ts tuple =
  match Access.tuple_name tuple with
  | Some oid when not (Manager.is_manager_object oid) ->
      (* bind the owner client when the oid encodes one, as the paper's
         recipes do ("client id encoded in oid", Fig. 11) *)
      let trigger_client =
        match String.rindex_opt oid '/' with
        | Some i -> (
            match
              int_of_string_opt (String.sub oid (i + 1) (String.length oid - i - 1))
            with
            | Some c -> c
            | None -> 0)
        | None -> 0
      in
      run_event_extensions t ~ts ~kind:Subscription.E_deleted ~oid ~trigger_client
  | Some _ | None -> ()

let commit t ~ts ctx =
  List.iter
    (fun tuple -> Ds_server.process_unblocked t.server ~ts tuple)
    (List.rev ctx.inserted);
  List.iter (fun tuple -> deletion_event t ~ts tuple) (List.rev ctx.deleted)

(* ------------------------------------------------------------------ *)
(* Operation extensions at the extension layer                         *)
(* ------------------------------------------------------------------ *)

let run_operation_extension t ~client ~rseq ~ts ~entry ~kind ~oid ~data =
  let ctx = new_ctx () in
  let proxy = make_proxy t ~client ~ts ~blocker:(Some rseq) ~ctx in
  let params =
    Manager.params ~oid ~kind:(Subscription.op_kind_to_string kind) ~client
      ~data:(Some data)
  in
  match Manager.run_operation t.manager entry ~proxy ~params with
  | Ok value ->
      commit t ~ts ctx;
      if ctx.parked then Ds_server.No_reply
      else Ds_server.Handled (P.Ext_r (Value.serialize value))
  | Error e ->
      rollback ctx;
      Ds_server.Rejected (Sandbox.error_to_string e)

let intercept t ~client ~rseq ~ts op =
  match op_info op with
  | None -> Ds_server.Pass
  | Some (kind, oid, data) -> (
      match Manager.admit t.manager ~client ~kind ~oid ~data with
      | Manager.Ordinary -> (
          match Manager.match_operation t.manager ~client ~kind ~oid with
          | Some entry ->
              run_operation_extension t ~client ~rseq ~ts ~entry ~kind ~oid ~data
          | None -> Ds_server.Pass)
      | Manager.Register _ | Manager.Deregister _ | Manager.Em_write ->
          (* an ordinary out/inp; the manager follows it through the
             insert/delete hooks *)
          Ds_server.Pass
      | Manager.Reject why -> Ds_server.Rejected why)

let on_unblock t ~client template tuple =
  (* an unblock is DepSpace's event (§5.2.2): matching event extensions run
     and may re-block the call by returning the string "reblock". *)
  let oid = match Access.template_name template with Some o -> o | None -> "" in
  let kind = Subscription.E_unblocked in
  let data = match Objects.decode tuple with Some v -> v.Objects.data | None -> "" in
  let params =
    Manager.params ~oid ~kind:(Subscription.event_kind_to_string kind) ~client
      ~data:(Some data)
  in
  let reblock = ref false in
  List.iter
    (fun (entry : Manager.entry) ->
      let ctx = new_ctx () in
      let proxy = make_proxy t ~client ~ts:Sim_time.zero ~blocker:None ~ctx in
      match Manager.run_event t.manager entry ~proxy ~params with
      | Ok (Value.Str "reblock") -> reblock := true
      | Ok _ -> ()
      | Error e ->
          rollback ctx;
          Logs.warn (fun m ->
              m "EDS unblock extension failed: %s" (Sandbox.error_to_string e)))
    (Manager.match_events t.manager ~kind ~oid);
  if !reblock then `Reblock else `Proceed

(* ------------------------------------------------------------------ *)
(* Installation and recovery                                           *)
(* ------------------------------------------------------------------ *)

let install server =
  let manager = Manager.create ~mode:Verify.Active () in
  let t = { server; manager; in_event = false } in
  Ds_server.set_hook_intercept server (fun _srv ~client ~rseq ~ts op ->
      intercept t ~client ~rseq ~ts op);
  Ds_server.set_hook_fast_path_allowed server (fun _srv ~client op ->
      match op_info op with
      | Some (kind, oid, _) -> not (Manager.intercepts manager ~client ~kind ~oid)
      | None -> true);
  (* registry bookkeeping: every replica, during ordered execution *)
  Ds_server.set_hook_on_inserted server (fun _srv ~ts:_ ~owner tuple ->
      match Objects.decode tuple with
      | Some v -> Manager.object_created manager ~oid:v.Objects.oid ~owner ~data:v.Objects.data
      | None -> ());
  Ds_server.set_hook_on_deleted server (fun _srv ~ts tuple ->
      Option.iter (fun oid -> Manager.object_deleted manager ~oid) (Access.tuple_name tuple);
      deletion_event t ~ts tuple);
  Ds_server.set_hook_on_unblock server (fun _srv ~client template tuple ->
      on_unblock t ~client template tuple);
  t

(** [reload t] feeds the manager's reconcile from the replicated space
    (§3.8): every ["/em/..."] object in insertion order, with the client
    that inserted it as its owner. *)
let reload t =
  let space = Ds_server.space t.server in
  Space.read_all space Tuple.[ Prefix "/em/"; Any; Any; Any ]
  |> List.filter_map (fun tuple ->
         match (Objects.decode tuple, Space.find space (Tuple.exact tuple)) with
         | Some v, Some (_, e) -> Some (v.Objects.oid, e.Space.owner, v.Objects.data)
         | _ -> None)
  |> Manager.reload t.manager
