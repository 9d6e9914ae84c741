(** DepSpace server replica.

    Mirrors the paper's Figure 4: a stack of layers — BFT-SMaRt (our PBFT
    substrate) at the bottom, then the EDS extension layer, then policy
    enforcement, access control, and the tuple space.  Being actively
    replicated, *every* replica executes *every* ordered request
    deterministically and replies to the client directly; the client
    library accepts a result once [f + 1] matching replies arrive.

    Blocking operations ([rd]/[in] with no match) are parked inside the
    replicated space; an unblock is DepSpace's notion of an event, and the
    [on_unblock] hook lets EDS event extensions run at that point and
    possibly re-block the call (§5.2.2). *)

open Edc_simnet
open Edc_replication
module P = Ds_protocol

type hook_action =
  | Pass
  | Handled of P.result
  | No_reply  (** the extension parked the client (server-side block) *)
  | Rejected of string

type config = { exec_cost : Sim_time.t }

(* calibrated: BFT execution is costlier per request than the
   primary-backup path (every replica executes, plus MAC-equivalent
   processing), capping EDS slightly below EZK as in the paper *)
let default_config = { exec_cost = Sim_time.us 50 }

type t = {
  sim : Sim.t;
  net : P.wire Net.t;
  id : int;
  replica_ids : int list;
  f : int;
  config : config;
  mutable pbft : P.request Pbft.t option;
  space : Space.t;
  access : Access.t;
  policy : Policy.t;
  mutable byzantine : bool;  (** if set, this replica corrupts its replies *)
  cpu : Cpu.t;  (** ordered-execution lane *)
  read_cpu : Cpu.t;
      (** separate core for the unordered read fast path (the testbed
          machines are multi-core; BFT-SMaRt serves read-only requests
          from its own threads) *)
  (* extension hooks (installed by EDS) *)
  mutable hook_intercept : t -> client:int -> rseq:int -> ts:Sim_time.t -> P.op -> hook_action;
  mutable hook_fast_path_allowed : t -> client:int -> P.op -> bool;
      (** EDS: reads matching an acknowledged extension must be ordered *)
  mutable hook_on_unblock :
    t -> client:int -> Tuple.template -> Tuple.t -> [ `Proceed | `Reblock ];
  mutable hook_on_deleted : t -> ts:Sim_time.t -> Tuple.t -> unit;
  mutable hook_on_inserted : t -> ts:Sim_time.t -> owner:int -> Tuple.t -> unit;
}

let sim t = t.sim
let space t = t.space
let access t = t.access
let policy t = t.policy
let id t = t.id
let pbft t = match t.pbft with Some p -> p | None -> invalid_arg "not wired"

let reply t ~client ~rseq result =
  let result = if t.byzantine then P.Err "byzantine" else result in
  let msg = P.Ds_reply { rseq; result } in
  (* replies leave through a serial execution stage: per-request CPU is
     what caps a replica's throughput *)
  Cpu.exec t.cpu ~cost:t.config.exec_cost (fun () ->
      Net.send t.net ~src:t.id ~dst:client ~size:(P.wire_size msg) msg)

(* ------------------------------------------------------------------ *)
(* Layered execution                                                   *)
(* ------------------------------------------------------------------ *)

let policy_view ~client op =
  let kind = P.op_kind op in
  let tuple, template =
    match op with
    | P.Out { tuple; _ } -> (Some tuple, None)
    | P.Cas { template; tuple } | P.Replace { template; tuple } ->
        (Some tuple, Some template)
    | P.Rdp tp | P.Inp tp | P.Rd tp | P.In_ tp | P.Rd_all tp -> (None, Some tp)
    | P.Renew { template; _ } -> (None, Some template)
    | P.Noop -> (None, None)
  in
  { Policy.v_client = client; v_kind = kind; v_tuple = tuple; v_template = template }

let name_of op =
  match op with
  | P.Out { tuple; _ } -> Access.tuple_name tuple
  | P.Cas { template; _ } | P.Replace { template; _ } -> Access.template_name template
  | P.Rdp tp | P.Inp tp | P.Rd tp | P.In_ tp | P.Rd_all tp ->
      Access.template_name tp
  | P.Renew { template; _ } -> Access.template_name template
  | P.Noop -> None

(* The unblock cascade: an insert may wake parked calls; the event hook may
   re-block them. *)
let rec process_unblocked t ~ts tuple =
  let woken, _ = Space.unblockable t.space tuple in
  List.iter
    (fun (p : Space.parked) ->
      match t.hook_on_unblock t ~client:p.p_client p.p_template tuple with
      | `Reblock ->
          ignore
            (Space.park t.space ~client:p.p_client ~rseq:p.p_rseq
               ~template:p.p_template ~take:p.p_take
              : int)
      | `Proceed ->
          if p.p_take then begin
            (* the blocked [in] consumes the tuple *)
            match Space.take t.space (Tuple.exact tuple) with
            | Some taken ->
                t.hook_on_deleted t ~ts taken;
                reply t ~client:p.p_client ~rseq:p.p_rseq
                  (P.Tuple_opt (Some taken))
            | None ->
                (* consumed in the meantime (by an earlier take in this
                   cascade); park again *)
                ignore
                  (Space.park t.space ~client:p.p_client ~rseq:p.p_rseq
                     ~template:p.p_template ~take:p.p_take
                    : int)
          end
          else reply t ~client:p.p_client ~rseq:p.p_rseq (P.Tuple_opt (Some tuple)))
    woken

and insert_tuple t ~ts ~client ~lease tuple =
  let tuple =
    Objects.stamp_ctime tuple ~ctime:(Space.next_insert_seq t.space)
  in
  let expiry = Option.map (fun d -> Sim_time.add ts d) lease in
  ignore (Space.insert t.space ~owner:client ~expiry tuple : int);
  t.hook_on_inserted t ~ts ~owner:client tuple;
  process_unblocked t ~ts tuple

(** [execute t ~client ~rseq ~ts op] runs [op] through policy, access
    control, and the space.  Returns [None] when the call parked (no reply
    yet).  This same function backs the extension proxy, so extension
    operations pass the upper layers exactly as the paper requires. *)
let execute t ~client ~rseq ~ts op =
  match Policy.check t.policy t.space (policy_view ~client op) with
  | Error why -> Some (P.Denied why)
  | Ok () ->
      if not (Access.check t.access ~client ~kind:(P.op_kind op) ~name:(name_of op))
      then Some (P.Denied "access denied")
      else (
        match op with
        | P.Out { tuple; lease } ->
            insert_tuple t ~ts ~client ~lease tuple;
            Some P.Unit_r
        | P.Rdp template -> Some (P.Tuple_opt (Space.find_tuple t.space template))
        | P.Inp template -> (
            match Space.take t.space template with
            | Some tuple ->
                t.hook_on_deleted t ~ts tuple;
                Some (P.Tuple_opt (Some tuple))
            | None -> Some (P.Tuple_opt None))
        | P.Rd template -> (
            match Space.find_tuple t.space template with
            | Some tuple -> Some (P.Tuple_opt (Some tuple))
            | None ->
                ignore (Space.park t.space ~client ~rseq ~template ~take:false : int);
                None)
        | P.In_ template -> (
            match Space.take t.space template with
            | Some tuple ->
                t.hook_on_deleted t ~ts tuple;
                Some (P.Tuple_opt (Some tuple))
            | None ->
                ignore (Space.park t.space ~client ~rseq ~template ~take:true : int);
                None)
        | P.Cas { template; tuple } ->
            if Space.find t.space template = None then begin
              insert_tuple t ~ts ~client ~lease:None tuple;
              Some (P.Bool_r true)
            end
            else Some (P.Bool_r false)
        | P.Replace { template; tuple } -> (
            (* a replace is a content change, not an object removal: no
               deletion event fires (mirrors ZooKeeper's Node_changed) *)
            match Space.take t.space template with
            | Some _old ->
                insert_tuple t ~ts ~client ~lease:None tuple;
                Some (P.Bool_r true)
            | None -> Some (P.Bool_r false))
        | P.Rd_all template -> Some (P.Tuples (Space.read_all t.space template))
        | P.Renew { template; lease } ->
            let n =
              Space.renew t.space ~owner:client ~template
                ~expiry:(Sim_time.add ts lease)
            in
            Some (P.Int_r n)
        | P.Noop -> Some P.Unit_r)

(* ------------------------------------------------------------------ *)
(* Ordered-request execution (PBFT deliver callback)                   *)
(* ------------------------------------------------------------------ *)

let purge_expired t ~ts =
  let dead = Space.expire t.space ~now:ts in
  List.iter (fun tuple -> t.hook_on_deleted t ~ts tuple) dead

let deliver t (_rid : Pbft.request_id) (req : P.request) ~ts =
  purge_expired t ~ts;
  match t.hook_intercept t ~client:req.client ~rseq:req.rseq ~ts req.op with
  | Handled result -> reply t ~client:req.client ~rseq:req.rseq result
  | No_reply -> ()
  | Rejected why -> reply t ~client:req.client ~rseq:req.rseq (P.Denied why)
  | Pass -> (
      match execute t ~client:req.client ~rseq:req.rseq ~ts req.op with
      | Some result -> reply t ~client:req.client ~rseq:req.rseq result
      | None -> () (* parked; reply comes from the unblock cascade *))

(* ------------------------------------------------------------------ *)
(* Wiring                                                              *)
(* ------------------------------------------------------------------ *)

let handle_wire t ~src msg =
  match msg with
  | P.Ds_request { rseq; op; fast } ->
      if fast && P.is_read_only op && t.hook_fast_path_allowed t ~client:src op
      then begin
        (* read-only fast path: answer from local state without ordering
           (and without mutating it: expired leases are filtered, not
           purged); the client masks divergence by requiring 2f+1 matching
           replies *)
              let now = Sim.now t.sim in
        let result =
          match Policy.check t.policy t.space (policy_view ~client:src op) with
          | Error why -> P.Denied why
          | Ok () ->
              if
                not
                  (Access.check t.access ~client:src ~kind:(P.op_kind op)
                     ~name:(name_of op))
              then P.Denied "access denied"
              else (
                match op with
                | P.Rdp template -> P.Tuple_opt (Space.find_live t.space ~now template)
                | P.Rd_all template -> P.Tuples (Space.read_all_live t.space ~now template)
                | _ -> P.Err "not a fast-path operation")
        in
        Cpu.exec t.read_cpu ~cost:t.config.exec_cost (fun () ->
            let msg = P.Ds_reply { rseq; result } in
            Net.send t.net ~src:t.id ~dst:src ~size:(P.wire_size msg) msg)
      end
      else
        Pbft.submit (pbft t)
          { Pbft.client = src; rseq }
          { P.client = src; rseq; op }
  | P.Ds_pbft m -> Pbft.handle (pbft t) ~src m
  | P.Ds_reply _ -> () (* not addressed to servers *)

let create ?(config = default_config) ?pbft_config ~sim ~net ~id ~replica_ids
    ~f () =
  let t =
    {
      sim;
      net;
      id;
      replica_ids;
      f;
      config;
      pbft = None;
      space = Space.create ();
      access = Access.create ();
      policy = Policy.create ();
      byzantine = false;
      cpu = Cpu.create sim;
      read_cpu = Cpu.create sim;
      hook_intercept = (fun _ ~client:_ ~rseq:_ ~ts:_ _ -> Pass);
      hook_fast_path_allowed = (fun _ ~client:_ _ -> true);
      hook_on_unblock = (fun _ ~client:_ _ _ -> `Proceed);
      hook_on_deleted = (fun _ ~ts:_ _ -> ());
      hook_on_inserted = (fun _ ~ts:_ ~owner:_ _ -> ());
    }
  in
  let send ~dst msg =
    Net.send net ~src:id ~dst ~size:(P.wire_size (P.Ds_pbft msg)) (P.Ds_pbft msg)
  in
  let p =
    Pbft.create ?config:pbft_config ~sim ~id ~peers:replica_ids ~f ~send
      ~on_deliver:(fun rid req ~ts -> deliver t rid req ~ts)
      ()
  in
  t.pbft <- Some p;
  Net.register net id (fun ~src ~size:_ msg -> handle_wire t ~src msg);
  t

let start t = Pbft.start (pbft t)

let crash t = Pbft.crash (pbft t)

(* The replica's durable state (space, access, policy, hook state) survives
   the crash; PBFT recovery re-delivers the ordered suffix it missed, and
   [deliver] applies it through the same execution path as live traffic. *)
let restart t = Pbft.restart (pbft t)

let set_byzantine t = t.byzantine <- true

(* Hook installation (used by EDS) *)
let set_hook_intercept t f = t.hook_intercept <- f
let set_hook_fast_path_allowed t f = t.hook_fast_path_allowed <- f
let set_hook_on_unblock t f = t.hook_on_unblock <- f
let set_hook_on_deleted t f = t.hook_on_deleted <- f
let set_hook_on_inserted t f = t.hook_on_inserted <- f
