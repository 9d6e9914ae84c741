(** DepSpace client library.

    The client multicasts each request to every replica (so the per-client
    data volume is ~[3f + 1] times the request size — the effect visible in
    the paper's Figure 8/10 byte counts) and accepts a result once [f + 1]
    replicas returned the same value, masking up to [f] Byzantine
    replies. *)

open Edc_simnet
module P = Ds_protocol

type config = {
  request_timeout : Sim_time.t;  (** for non-blocking operations *)
}

let default_config = { request_timeout = Sim_time.sec 4 }

(** how often lease renewals are sent *)
let renew_interval = Sim_time.sec 2

type vote = {
  mutable replies : (P.result * int list) list;  (** result -> voters *)
  quorum : int;  (** matching replies needed: f+1 ordered, 2f+1 fast *)
  n_replicas : int;
  promise : P.result Proc.promise;
}

(** internal marker: a fast read could not gather a matching quorum *)
let diverged = P.Err "__fast_read_diverged"

type t = {
  sim : Sim.t;
  net : P.wire Net.t;
  addr : int;
  replicas : int list;
  f : int;
  config : config;
  mutable rseq : int;
  pending : (int, vote) Hashtbl.t;
  mutable renewing : (Tuple.template * Sim_time.t) list;
      (** active lease subscriptions kept alive by the renewal fiber *)
  mutable closed : bool;
  mutable requests_sent : int;
}

let addr t = t.addr
let requests_sent t = t.requests_sent
let sim t = t.sim

let record_reply t ~src ~rseq result =
  match Hashtbl.find_opt t.pending rseq with
  | None -> () (* already decided; late reply *)
  | Some vote ->
      let updated = ref false in
      let replies =
        List.map
          (fun (r, voters) ->
            if r = result && not (List.mem src voters) then begin
              updated := true;
              (r, src :: voters)
            end
            else (r, voters))
          vote.replies
      in
      let replies = if !updated then replies else (result, [ src ]) :: replies in
      vote.replies <- replies;
      let decided =
        List.find_opt
          (fun (_, voters) -> List.length voters >= vote.quorum)
          replies
      in
      match decided with
      | Some (r, _) ->
          Hashtbl.remove t.pending rseq;
          ignore (Proc.try_fulfill vote.promise r : bool)
      | None ->
          (* all replicas answered but no quorum agrees: the fast read hit
             divergent states; tell the caller to fall back *)
          let total =
            List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 replies
          in
          if total >= vote.n_replicas then begin
            Hashtbl.remove t.pending rseq;
            ignore (Proc.try_fulfill vote.promise diverged : bool)
          end

let create ?(config = default_config) ~sim ~net ~addr ~replicas ~f () =
  let t =
    {
      sim;
      net;
      addr;
      replicas;
      f;
      config;
      rseq = 0;
      pending = Hashtbl.create 8;
      renewing = [];
      closed = false;
      requests_sent = 0;
    }
  in
  Net.register net addr (fun ~src ~size:_ msg ->
      match msg with
      | P.Ds_reply { rseq; result } -> record_reply t ~src ~rseq result
      | P.Ds_request _ | P.Ds_pbft _ -> ());
  t

(** [request t op] multicasts [op] and blocks the fiber until enough
    matching replies arrive: [f + 1] for ordered operations, [2f + 1] for
    fast (unordered) reads, which fall back to ordered execution when the
    replicas' answers diverge.  Blocking space operations ([Rd]/[In_])
    wait indefinitely; everything else times out with [Err "timeout"]. *)
let rec request ?timeout ?(fast_allowed = true) t op =
  t.rseq <- t.rseq + 1;
  let rseq = t.rseq in
  let fast = fast_allowed && P.is_read_only op in
  let quorum = if fast then (2 * t.f) + 1 else t.f + 1 in
  let vote =
    { replies = []; quorum; n_replicas = List.length t.replicas;
      promise = Proc.promise t.sim }
  in
  Hashtbl.replace t.pending rseq vote;
  t.requests_sent <- t.requests_sent + 1;
  let msg = P.Ds_request { rseq; op; fast } in
  List.iter
    (fun dst -> Net.send t.net ~src:t.addr ~dst ~size:(P.wire_size msg) msg)
    t.replicas;
  let is_blocking = match op with P.Rd _ | P.In_ _ -> true | _ -> false in
  let timeout_v =
    match timeout with
    | Some d -> Some d
    | None -> if is_blocking then None else Some t.config.request_timeout
  in
  let outcome =
    match timeout_v with
    | None -> Proc.await vote.promise
    | Some d -> (
        match Proc.await_timeout t.sim vote.promise ~timeout:d with
        | Some r -> r
        | None ->
            Hashtbl.remove t.pending rseq;
            P.Err "timeout")
  in
  if fast && outcome = diverged then request ?timeout ~fast_allowed:false t op
  else outcome

(* ------------------------------------------------------------------ *)
(* Convenience wrappers (Table 2, DepSpace column)                     *)
(* ------------------------------------------------------------------ *)

let out t ?lease tuple =
  match request t (P.Out { tuple; lease }) with
  | P.Unit_r -> Ok ()
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

let rdp t template =
  match request t (P.Rdp template) with
  | P.Tuple_opt r -> Ok r
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

let inp t template =
  match request t (P.Inp template) with
  | P.Tuple_opt r -> Ok r
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

(** blocking read *)
let rd ?timeout t template =
  match request ?timeout t (P.Rd template) with
  | P.Tuple_opt (Some tuple) -> Ok tuple
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

(** blocking take *)
let in_ ?timeout t template =
  match request ?timeout t (P.In_ template) with
  | P.Tuple_opt (Some tuple) -> Ok tuple
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

let cas t template tuple =
  match request t (P.Cas { template; tuple }) with
  | P.Bool_r b -> Ok b
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

let replace t template tuple =
  match request t (P.Replace { template; tuple }) with
  | P.Bool_r b -> Ok b
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

let rd_all t template =
  match request t (P.Rd_all template) with
  | P.Tuples ts -> Ok ts
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

(** [noop t] — an ordered no-op: drives deterministic lease expiry. *)
let noop t =
  match request t P.Noop with
  | P.Unit_r -> Ok ()
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

let renew t template lease =
  match request t (P.Renew { template; lease }) with
  | P.Int_r n -> Ok n
  | P.Denied why | P.Err why -> Error why
  | _ -> Error "unexpected result"

(* ------------------------------------------------------------------ *)
(* Lease maintenance (Table 2's monitor)                               *)
(* ------------------------------------------------------------------ *)

let rec renew_loop t () =
  if (not t.closed) && t.renewing <> [] then begin
    Proc.spawn t.sim (fun () ->
        List.iter
          (fun (template, lease) -> ignore (renew t template lease))
          t.renewing);
    Sim.schedule t.sim ~after:renew_interval (renew_loop t)
  end

(** [ensure_renewing t template lease] starts periodic renewal of the
    matching lease tuples (idempotent per template). *)
let ensure_renewing t template lease =
  if not (List.exists (fun (tp, _) -> tp = template) t.renewing) then begin
    let was_empty = t.renewing = [] in
    t.renewing <- (template, lease) :: t.renewing;
    if was_empty then
      Sim.schedule t.sim ~after:renew_interval (renew_loop t)
  end

(** [monitor t tuple ~lease] inserts [tuple] with a lease and keeps
    renewing it until {!close} — the DepSpace half of Table 2's
    [monitor(x, o)]: if this client dies, the tuple expires and its
    deletion doubles as a failure notification. *)
let monitor t tuple ~lease =
  match out t ~lease tuple with
  | Ok () ->
      ensure_renewing t (Tuple.exact tuple) lease;
      Ok ()
  | Error e -> Error e

(** [close t] stops renewals; leases then expire server-side, which is how
    other clients learn this one is gone. *)
let close t =
  t.closed <- true;
  t.renewing <- []
