(** PBFT-style Byzantine fault-tolerant state machine replication.

    Reproduces the substrate DepSpace (and therefore the paper's EDS) runs
    on: BFT-SMaRt-like total-order multicast with [n = 3f + 1] replicas.
    Clients multicast their request to every replica; the primary of the
    current view assigns sequence numbers and runs the classic three-phase
    exchange (pre-prepare / prepare / commit with [2f] and [2f + 1]
    quorums); replicas execute requests deterministically in sequence order
    and reply directly to the client, which accepts a result once [f + 1]
    matching replies arrive (that vote lives in the DepSpace client
    library, not here).

    View change is simplified for the crash/silent fault model exercised by
    the tests: a backup that sees a submitted request go unordered past a
    timeout broadcasts a VIEW-CHANGE carrying its delivered history and
    pending requests; the new primary (round-robin on view number) waits
    for [2f + 1] such messages, adopts the longest delivered history among
    them, and re-proposes everything else.  Real PBFT additionally carries
    prepared certificates to survive Byzantine primaries across the view
    boundary; we document this delta in DESIGN.md — all experiments in the
    paper run with a correct primary. *)

open Edc_simnet

(** Request identity: deduplicates re-proposals across views. *)
type request_id = { client : int; rseq : int }

let request_id_compare a b =
  match Int.compare a.client b.client with
  | 0 -> Int.compare a.rseq b.rseq
  | c -> c

let pp_request_id ppf r = Fmt.pf ppf "%d:%d" r.client r.rseq

type 'p msg =
  | Pre_prepare of {
      view : int;
      seq : int;
      batch : (request_id * 'p) list;
          (** the requests agreed on as one consensus instance, in
              execution order (BFT-SMaRt packs every request that arrived
              during the previous instance into the next proposal) *)
      ts : Sim_time.t;
          (** primary-assigned timestamp: gives replicas a deterministic
              shared notion of time for lease expiry (DepSpace) *)
    }
  | Prepare of { view : int; seq : int }
  | Commit of { view : int; seq : int }
  | View_change of {
      new_view : int;
      delivered : (request_id * 'p) list;  (** full delivered history *)
      pending : (request_id * 'p) list;
    }
  | New_view of { view : int }
  | Recover_request
  | Recover_reply of { view : int }

type config = {
  order_timeout : Sim_time.t;
      (** how long a backup waits for a submitted request to be ordered
          before suspecting the primary *)
  check_interval : Sim_time.t;
  batch : Batching.config;
      (** primary-side request batching: requests arriving while the
          previous instance syncs ride the next pre-prepare *)
}

let default_config =
  {
    order_timeout = Sim_time.ms 400;
    check_interval = Sim_time.ms 50;
    batch = Batching.per_turn;
  }

type 'p slot = {
  s_batch : (request_id * 'p) list;
  s_ts : Sim_time.t;
  mutable prepares : int list;
  mutable commits : int list;
  mutable sent_commit : bool;
}

type 'p t = {
  sim : Sim.t;
  id : int;
  peers : int list;
  f : int;
  send : dst:int -> 'p msg -> unit;
  send_many : dsts:int list -> 'p msg -> unit;
      (** one message value to many peers; the TCP transport encodes it
          once (encode-once broadcast) *)
  on_deliver : request_id -> 'p -> ts:Sim_time.t -> unit;
  config : config;
  mutable view : int;
  mutable alive : bool;
  mutable generation : int;
  slots : (int, 'p slot) Hashtbl.t;  (** seq -> in-flight slot (current view) *)
  in_flight : (request_id, unit) Hashtbl.t;
      (** requests enqueued or ordered but not yet delivered (primary-side
          index that keeps [submit]'s duplicate check O(1)) *)
  mutable batcher : (request_id * 'p) Batching.t option;
      (** set right after create *)
  mutable next_seq : int;  (** primary: next sequence number to assign *)
  mutable delivered : (request_id * 'p) list;  (** newest first *)
  executed : (request_id, unit) Hashtbl.t;
  mutable deliver_horizon : int;  (** next seq to deliver *)
  pending : (request_id, 'p * Sim_time.t) Hashtbl.t;
      (** submitted but not yet delivered, with submission time *)
  mutable view_changes : (int * (request_id * 'p) list * (request_id * 'p) list) list;
      (** (from, delivered, pending) messages for view [view + 1 ...] ,
          keyed implicitly by the new view we are collecting for *)
  mutable collecting_view : int;  (** the view we are collecting VCs for *)
  mutable recovering : bool;  (** restarted, waiting for recover replies *)
  mutable recover_views : (int * int) list;  (** (replica, its view) *)
}

let n t = List.length t.peers
let primary_of t view = List.nth (List.sort compare t.peers) (view mod n t)
let is_primary t = t.alive && primary_of t t.view = t.id
let view t = t.view
let prepared_quorum t = 2 * t.f  (* plus the pre-prepare itself *)
let commit_quorum t = (2 * t.f) + 1

let others t = List.filter (fun p -> p <> t.id) t.peers
let broadcast t msg = t.send_many ~dsts:(others t) msg

let batcher t =
  match t.batcher with Some b -> b | None -> invalid_arg "pbft not wired"

(* Execute a committed slot: every request of the batch, in batch order,
   within one simulation event — the batch is atomic on every replica.
   Re-proposed requests that already executed are deduplicated here. *)
let deliver_slot t seq slot =
  Hashtbl.remove t.slots seq;
  List.iter
    (fun (rid, payload) ->
      Hashtbl.remove t.in_flight rid;
      if not (Hashtbl.mem t.executed rid) then begin
        Hashtbl.replace t.executed rid ();
        t.delivered <- (rid, payload) :: t.delivered;
        Hashtbl.remove t.pending rid;
        t.on_deliver rid payload ~ts:slot.s_ts
      end)
    slot.s_batch

let try_deliver t =
  let continue_ = ref true in
  while !continue_ do
    match Hashtbl.find_opt t.slots t.deliver_horizon with
    | Some slot when List.length slot.commits >= commit_quorum t ->
        deliver_slot t t.deliver_horizon slot;
        t.deliver_horizon <- t.deliver_horizon + 1
    | _ -> continue_ := false
  done

let slot_for t seq batch ts =
  match Hashtbl.find_opt t.slots seq with
  | Some s -> s
  | None ->
      let s =
        { s_batch = batch; s_ts = ts; prepares = []; commits = [];
          sent_commit = false }
      in
      Hashtbl.replace t.slots seq s;
      s

let record_prepare t seq slot src =
  if not (List.mem src slot.prepares) then slot.prepares <- src :: slot.prepares;
  if (not slot.sent_commit) && List.length slot.prepares >= prepared_quorum t
  then begin
    slot.sent_commit <- true;
    broadcast t (Commit { view = t.view; seq });
    (* count our own commit *)
    if not (List.mem t.id slot.commits) then slot.commits <- t.id :: slot.commits;
    try_deliver t
  end

let record_commit t slot src =
  if not (List.mem src slot.commits) then slot.commits <- src :: slot.commits;
  try_deliver t

let order_batch t batch =
  (* primary: assign the next sequence number to the whole batch, stamp it
     with the primary's clock, and start the three-phase exchange *)
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  let ts = Sim.now t.sim in
  let slot = slot_for t seq batch ts in
  List.iter (fun (rid, _) -> Hashtbl.replace t.in_flight rid ()) batch;
  broadcast t (Pre_prepare { view = t.view; seq; batch; ts });
  (* The primary's pre-prepare doubles as its prepare. *)
  record_prepare t seq slot t.id

(* Flush callback of the request batcher. *)
let propose_batch t items =
  if t.alive && is_primary t then
    match items with [] -> () | batch -> order_batch t batch

(** [submit t rid payload] hands a client request to this replica (clients
    multicast to all replicas).  The primary batches and orders it; backups
    remember it and watch for it to be ordered. *)
let submit t rid payload =
  if t.alive && not (Hashtbl.mem t.executed rid) then begin
    if not (Hashtbl.mem t.pending rid) then
      Hashtbl.replace t.pending rid (payload, Sim.now t.sim);
    if is_primary t then begin
      (* Avoid double-ordering a request that is already enqueued or in
         flight. *)
      if not (Hashtbl.mem t.in_flight rid) then begin
        Hashtbl.replace t.in_flight rid ();
        Batching.add (batcher t) (rid, payload)
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* View change                                                         *)
(* ------------------------------------------------------------------ *)

let start_view_change t =
  let new_view = t.view + 1 in
  Trace.debugf t.sim "pbft[%d] suspects primary of view %d" t.id t.view;
  t.view <- new_view;
  Hashtbl.reset t.slots;
  Hashtbl.reset t.in_flight;
  Batching.reset (batcher t);
  t.deliver_horizon <- 0;
  t.next_seq <- 0;
  t.collecting_view <- new_view;
  t.view_changes <- [];
  let delivered = List.rev t.delivered in
  let pending =
    Hashtbl.fold (fun rid (p, _) acc -> (rid, p) :: acc) t.pending []
    |> List.sort (fun (a, _) (b, _) -> request_id_compare a b)
  in
  let m = View_change { new_view; delivered; pending } in
  broadcast t m;
  (* Deliver our own view-change to ourselves if we are the new primary. *)
  if primary_of t new_view = t.id then
    t.view_changes <- [ (t.id, delivered, pending) ]

let maybe_install_view t =
  if
    primary_of t t.collecting_view = t.id
    && t.view = t.collecting_view
    && List.length t.view_changes >= commit_quorum t
  then begin
    (* Adopt the longest delivered history among the quorum, then re-propose
       first its suffix we have not executed, then all pending requests. *)
    let longest =
      List.fold_left
        (fun acc (_, d, _) -> if List.length d > List.length acc then d else acc)
        [] t.view_changes
    in
    broadcast t (New_view { view = t.view });
    t.next_seq <- 0;
    t.deliver_horizon <- 0;
    Hashtbl.reset t.slots;
    Hashtbl.reset t.in_flight;
    Batching.reset (batcher t);
    let pending_union =
      List.concat_map (fun (_, _, p) -> p) t.view_changes
      |> List.sort_uniq (fun (a, _) (b, _) -> request_id_compare a b)
    in
    let reproposals =
      longest
      @ List.filter
          (fun (rid, _) ->
            not (List.exists (fun (r, _) -> request_id_compare r rid = 0) longest))
          pending_union
    in
    (* Re-propose synchronously (bypassing the batcher): the new view must
       converge before fresh client traffic is batched behind it.  Requests
       already executed here are re-proposed too, so lagging replicas
       converge; execution is deduplicated by [executed]. *)
    List.iter (fun (rid, payload) -> order_batch t [ (rid, payload) ]) reproposals;
    t.view_changes <- []
  end

(* ------------------------------------------------------------------ *)
(* Message handling                                                    *)
(* ------------------------------------------------------------------ *)

let handle t ~src msg =
  if t.alive then
    match msg with
    | Pre_prepare { view; seq; batch; ts } ->
        if view = t.view && src = primary_of t view then begin
          let slot = slot_for t seq batch ts in
          broadcast t (Prepare { view; seq });
          (* our own prepare counts *)
          record_prepare t seq slot t.id;
          record_prepare t seq slot src
        end
    | Prepare { view; seq } ->
        if view = t.view then begin
          match Hashtbl.find_opt t.slots seq with
          | Some slot -> record_prepare t seq slot src
          | None ->
              (* prepare raced ahead of the pre-prepare on another link;
                 FIFO links make this impossible from the same sender, and
                 cross-sender races are handled by ignoring: the prepare
                 will be re-counted when our timeout re-syncs the view.  At
                 simulation scale we simply drop it; the 2f quorum does not
                 need every vote. *)
              ()
        end
    | Commit { view; seq } ->
        if view = t.view then (
          match Hashtbl.find_opt t.slots seq with
          | Some slot -> record_commit t slot src
          | None -> ())
    | View_change { new_view; delivered; pending } ->
        if new_view > t.view then begin
          (* Join the view change ourselves. *)
          t.view <- new_view - 1;
          start_view_change t
        end;
        if new_view = t.view && primary_of t new_view = t.id then begin
          if not (List.exists (fun (f, _, _) -> f = src) t.view_changes) then
            t.view_changes <- (src, delivered, pending) :: t.view_changes;
          maybe_install_view t
        end
    | Recover_request ->
        if not t.recovering then t.send ~dst:src (Recover_reply { view = t.view })
    | Recover_reply { view } ->
        if t.recovering then begin
          if not (List.mem_assoc src t.recover_views) then
            t.recover_views <- (src, view) :: t.recover_views;
          if List.length t.recover_views >= t.f + 1 then begin
            (* [f + 1] answers include at least one correct replica, so the
               max view we heard is no older than the ensemble's.  Jump
               there and force a view change: its history transfer is what
               brings us (and only costs the ensemble one view bump). *)
            t.recovering <- false;
            let v =
              List.fold_left (fun acc (_, v) -> max acc v) t.view t.recover_views
            in
            t.recover_views <- [];
            t.view <- v;
            start_view_change t
          end
        end
    | New_view { view } ->
        if view >= t.view && src = primary_of t view then begin
          t.view <- view;
          Hashtbl.reset t.slots;
          Hashtbl.reset t.in_flight;
          Batching.reset (batcher t);
          t.deliver_horizon <- 0;
          (* Reset pending timers: give the new primary a fresh window. *)
          let now = Sim.now t.sim in
          let rebased =
            Hashtbl.fold (fun rid (p, _) acc -> (rid, (p, now)) :: acc) t.pending []
          in
          Hashtbl.reset t.pending;
          List.iter (fun (rid, v) -> Hashtbl.replace t.pending rid v) rebased
        end

(* ------------------------------------------------------------------ *)
(* Timers                                                              *)
(* ------------------------------------------------------------------ *)

let rec tick t generation () =
  if t.alive && generation = t.generation then begin
    (* While recovering we do not know the real view yet, so suspecting the
       primary from a stale view would only add noise. *)
    if (not (is_primary t)) && not t.recovering then begin
      let now = Sim.now t.sim in
      let stuck =
        Hashtbl.fold
          (fun _ (_, since) acc ->
            acc
            || Sim_time.(t.config.order_timeout <= Sim_time.sub now since))
          t.pending false
      in
      if stuck then start_view_change t
    end;
    Sim.schedule t.sim ~after:t.config.check_interval (tick t generation)
  end

let start t =
  t.generation <- t.generation + 1;
  Sim.schedule t.sim ~after:Sim_time.zero (tick t t.generation)

let create ?(config = default_config) ?send_many ~sim ~id ~peers ~f ~send
    ~on_deliver () =
  assert (List.length peers >= (3 * f) + 1);
  let send_many =
    match send_many with
    | Some f -> f
    | None -> fun ~dsts msg -> List.iter (fun dst -> send ~dst msg) dsts
  in
  let t =
    {
      sim;
      id;
      peers;
      f;
      send;
      send_many;
      on_deliver;
      config;
      view = 0;
      alive = true;
      generation = 0;
      slots = Hashtbl.create 64;
      in_flight = Hashtbl.create 64;
      batcher = None;
      next_seq = 0;
      delivered = [];
      executed = Hashtbl.create 64;
      deliver_horizon = 0;
      pending = Hashtbl.create 64;
      view_changes = [];
      collecting_view = 0;
      recovering = false;
      recover_views = [];
    }
  in
  t.batcher <-
    Some
      (Batching.create ~sim ~config:config.batch ~flush:(fun items ->
           propose_batch t items));
  t

(** [crash t] silences the replica (crash or Byzantine-mute fault). *)
let crash t =
  t.alive <- false;
  t.generation <- t.generation + 1;
  t.recovering <- false;
  t.recover_views <- [];
  Batching.reset (batcher t)

let rec recover_tick t generation () =
  if t.alive && t.recovering && generation = t.generation then begin
    (* Re-ask until enough of the ensemble is reachable; requests are lost
       if we restarted into a partition. *)
    broadcast t Recover_request;
    Sim.schedule t.sim ~after:t.config.order_timeout (recover_tick t generation)
  end

(** [restart t] revives a crashed replica with its durable state (delivered
    history, execution dedup table) and kicks off view recovery. *)
let restart t =
  if not t.alive then begin
    t.alive <- true;
    Hashtbl.reset t.slots;
    Hashtbl.reset t.in_flight;
    Hashtbl.reset t.pending;
    Batching.reset (batcher t);
    t.view_changes <- [];
    t.deliver_horizon <- 0;
    t.next_seq <- 0;
    t.recovering <- true;
    t.recover_views <- [];
    Trace.debugf t.sim "pbft[%d] restarting (view %d)" t.id t.view;
    start t;
    Sim.schedule t.sim ~after:Sim_time.zero (recover_tick t t.generation)
  end

let delivered_count t = List.length t.delivered

(** Delivered history, oldest first (test observability). *)
let delivered_log t = List.rev t.delivered

(** [msg_size ~payload_size msg] models wire sizes; View_change carries a
    full history so its size reflects that. *)
let msg_size ~payload_size = function
  | Pre_prepare { batch; _ } ->
      List.fold_left (fun acc (_, p) -> acc + 16 + payload_size p) 40 batch
  | Prepare _ -> 40
  | Commit _ -> 40
  | View_change { delivered; pending; _ } ->
      let cost = List.fold_left (fun acc (_, p) -> acc + 16 + payload_size p) 0 in
      48 + cost delivered + cost pending
  | New_view _ -> 24
  | Recover_request -> 16
  | Recover_reply _ -> 24
