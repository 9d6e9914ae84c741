(** Table 2, DepSpace column: the abstract API over the DepSpace (and EDS)
    client library, using the object-tuple convention of
    {!Edc_depspace.Objects}.

    [await_change]/[signal_change] use an epoch-token scheme in the spirit
    of DepSpace's blocking reads (§5.2.1: clients wait by issuing a read
    that blocks until the object is created): the signaller replaces an
    epoch tuple [<oid ^ "#epoch", n>] with [n + 1]; waiters read the
    current epoch and issue a blocking [rd] for the tuple carrying the
    *next* value. *)

open Edc_depspace
open Edc_eds

let epoch_name oid = oid ^ "#epoch"
let epoch_tuple ~oid ~n = Tuple.[ Str (epoch_name oid); Int n ]
let epoch_template oid = Tuple.[ Exact (Str (epoch_name oid)); Any ]

(* one token tuple per epoch; tokens are never removed, so a waiter that
   read epoch [n] can always complete its blocking read for token [n+1]
   even if further bumps happen concurrently *)
let token_name oid n = Printf.sprintf "%s#tok%d" oid n
let token_tuple ~oid ~n = Tuple.[ Str (token_name oid n) ]
let token_exact oid ~n = Tuple.[ Exact (Str (token_name oid n)) ]

let obj_of (v : Objects.view) =
  {
    Coord_api.oid = v.Objects.oid;
    data = v.Objects.data;
    version = v.Objects.version;
    ctime = v.Objects.ctime;
  }

(* How each call reaches the wire: directly ([of_client]) or through a
   resilient session ([of_session]).  The [op] kind drives the session's
   safe-resubmission policy; the direct runner ignores it.  Blocking reads
   (block / await_change / invoke_block) never go through the runner. *)
type runner = {
  run :
    'a.
    op:Ds_session.op_kind -> (unit -> ('a, string) result) ->
    ('a, string) result;
}

let direct_runner = { run = (fun ~op:_ f -> f ()) }

let session_runner s =
  { run = (fun ~op f -> Ds_session.call s ~op (fun _ -> f ())) }

let rd_op = Ds_session.Read
let wr_idem = Ds_session.Write { idempotent = true }
let wr = Ds_session.Write { idempotent = false }

let build ~extensible ~runner c =
  let { run } = runner in
  let create ~oid ~data =
    (* the paper's create(o) maps to out(o); keep create semantics by
       refusing to duplicate via cas.  Non-idempotent: a resubmission that
       already applied would misreport "exists". *)
    run ~op:wr (fun () ->
        match
          Ds_client.cas c (Objects.template oid)
            (Objects.tuple ~oid ~data ~version:0 ~ctime:0)
        with
        | Ok true -> Ok oid
        | Ok false -> Error "exists"
        | Error e -> Error e)
  in
  let delete ~oid =
    (* Idempotent in effect: taking twice converges on "gone". *)
    run ~op:wr_idem (fun () ->
        match Ds_client.inp c (Objects.template oid) with
        | Ok (Some _) -> Ok true
        | Ok None -> Ok false
        | Error e -> Error e)
  in
  let read ~oid =
    run ~op:rd_op (fun () ->
        match Ds_client.rdp c (Objects.template oid) with
        | Ok (Some t) -> Ok (Option.map obj_of (Objects.decode t))
        | Ok None -> Ok None
        | Error e -> Error e)
  in
  let update ~oid ~data =
    (* Blind overwrite: re-applying the same data is harmless. *)
    run ~op:wr_idem (fun () ->
        match
          Ds_client.replace c (Objects.template oid)
            (Objects.tuple ~oid ~data ~version:0 ~ctime:0)
        with
        | Ok true -> Ok ()
        | Ok false -> Error "no object"
        | Error e -> Error e)
  in
  let cas ~expected ~data =
    (* replace(o, cc, nc): only replace if the current content is cc.
       Non-idempotent: an applied-then-resubmitted cas would misreport a
       lost race. *)
    let oid = expected.Coord_api.oid in
    run ~op:wr (fun () ->
        Ds_client.replace c
          (Objects.cas_template oid ~data:expected.Coord_api.data)
          (Objects.tuple ~oid ~data
             ~version:(expected.Coord_api.version + 1)
             ~ctime:expected.Coord_api.ctime))
  in
  let sub_objects ~oid =
    (* rdAll(<o, SUB_ANY>): one RPC *)
    run ~op:rd_op (fun () ->
        match Ds_client.rd_all c (Objects.sub_template oid) with
        | Ok tuples ->
            Ok (List.filter_map Objects.decode tuples |> List.map obj_of)
        | Error e -> Error e)
  in
  let sub_object_ids ~oid =
    run ~op:rd_op (fun () ->
        match Ds_client.rd_all c (Objects.sub_template oid) with
        | Ok tuples ->
            Ok
              (List.filter_map
                 (fun t -> Option.map (fun v -> v.Objects.oid) (Objects.decode t))
                 tuples)
        | Error e -> Error e)
  in
  let block ~oid =
    match Ds_client.rd c (Objects.template oid) with
    | Ok _ -> Ok ()
    | Error e -> Error e
  in
  let read_epoch oid =
    match run ~op:rd_op (fun () -> Ds_client.rdp c (epoch_template oid)) with
    | Ok (Some Tuple.[ Str _; Int n ]) -> n
    | _ -> 0
  in
  let await_change ~oid ~seen =
    ignore seen;
    let n = read_epoch oid in
    match Ds_client.rd c (token_exact oid ~n:(n + 1)) with
    | Ok _ -> Ok ()
    | Error e -> Error e
  in
  let signal_change ~oid =
    (* atomically advance the epoch counter (retry on races), then create
       the matching token; token creation is idempotent via cas *)
    let rec bump tries =
      if tries > 64 then Error "epoch bump starved"
      else
        let n = read_epoch oid in
        if
          n = 0
          && run ~op:wr (fun () ->
                 Ds_client.cas c (epoch_template oid) (epoch_tuple ~oid ~n:1))
             = Ok true
        then Ok 1
        else
          match
            (* the bump is non-idempotent: a lost reply must not be
               resubmitted blindly, or a waiter's token could be skipped *)
            run ~op:wr (fun () ->
                Ds_client.replace c
                  Tuple.[ Exact (Str (epoch_name oid)); Exact (Int n) ]
                  (epoch_tuple ~oid ~n:(n + 1)))
          with
          | Ok true -> Ok (n + 1)
          | Ok false -> bump (tries + 1)
          | Error e -> Error e
    in
    match bump 0 with
    | Error e -> Error e
    | Ok n -> (
        (* token creation is idempotent: the cas refuses a duplicate *)
        match
          run ~op:wr_idem (fun () ->
              Ds_client.cas c (token_exact oid ~n) (token_tuple ~oid ~n))
        with
        | Ok _ -> Ok ()
        | Error e -> Error e)
  in
  let monitor ~oid =
    run ~op:wr (fun () ->
        Ds_client.monitor c
          (Objects.tuple ~oid ~data:"" ~version:0 ~ctime:0)
          ~lease:Eds.monitor_lease)
  in
  let ext =
    if not extensible then None
    else
      Some
        {
          Coord_api.register =
            (* a duplicate [out] of the registration tuple is not safe to
               resubmit blindly *)
            (fun program -> run ~op:wr (fun () -> Eds_client.register c program));
          acknowledge =
            (fun name -> run ~op:wr (fun () -> Eds_client.acknowledge c name));
          invoke_read =
            (* an operation extension may mutate state, so a timed-out
               invocation is ambiguous *)
            (fun oid -> run ~op:wr (fun () -> Eds_client.ext_read c oid));
          invoke_block = (fun oid -> Eds_client.block c oid);
          keep_alive = (fun oid -> Eds_client.keep_alive c ~oid ~lease:Eds.monitor_lease);
        }
  in
  {
    Coord_api.client_id = Ds_client.addr c;
    create;
    delete;
    read;
    update;
    cas;
    sub_objects;
    sub_object_ids;
    block;
    await_change;
    signal_change;
    monitor;
    ext;
  }

(** [of_client ~extensible c] builds the API. *)
let of_client ~extensible c = build ~extensible ~runner:direct_runner c

(** [of_session ~extensible s] — same API, with every timeout-bounded call
    routed through the resilient session. *)
let of_session ~extensible s =
  build ~extensible ~runner:(session_runner s)
    (Ds_session.client s)
