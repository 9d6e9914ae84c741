(** History-capturing wrapper over the abstract coordination API.  See
    instrument.mli for the error-classification rules. *)

open Edc_core
open Edc_recipes
module Api = Coord_api

type scope = {
  counter_oid : string;
  counter_trigger : string;
  queue_root : string;
  queue_trigger : string;
}

let default_scope =
  {
    counter_oid = Counter.counter_oid;
    counter_trigger = Counter.trigger_oid;
    queue_root = Queue.root;
    queue_trigger = Queue.head_trigger;
  }

(* Rejections the service only issues after (atomically) evaluating the
   request against its state — these writes definitely did not apply.
   Unknown errors conservatively stay ambiguous. *)
let is_definite_error e =
  match e with
  | "no node" | "node exists" | "bad version" | "not empty"
  | "no children for ephemerals" | "invalid path" | "unsupported operation"
  | "not extensible" | "no tuple" | "tuple exists" | "locked"
  | "txn conflict" ->
      (* [locked] and [txn conflict] are definite rejections: the write
         was refused before ordering / aborted on every shard (§6j) *)
      true
  | _ ->
      (* extension programs reject with "extension error: ..." *)
      String.length e >= 16 && String.sub e 0 16 = "extension error:"

let record h ~client ~op ~response f =
  let id = History.invoke h ~client op in
  match f () with
  | Ok v ->
      History.ok h id (response v);
      Ok v
  | Error e ->
      if is_definite_error e then History.fail h id e
      else History.info h id e;
      Error e

(* Like [record] but errors are [Fail] (reads have no effect). *)
let record_read h ~client ~op ~response f =
  let id = History.invoke h ~client op in
  match f () with
  | Ok v ->
      History.ok h id (response v);
      Ok v
  | Error e ->
      History.fail h id e;
      Error e

let value_response = function
  | Value.Int n -> History.R_int n
  | Value.Unit -> History.R_unit
  | Value.Str s -> History.R_opt (Some s)
  | v -> History.R_other (Fmt.str "%a" Value.pp v)

let wrap ?(scope = default_scope) h (api : Api.t) =
  let client = api.Api.client_id in
  let in_queue oid =
    let root = scope.queue_root ^ "/" in
    let n = String.length root in
    String.length oid > n && String.sub oid 0 n = root
    && oid <> scope.queue_trigger
  in
  let eid_of oid =
    String.sub oid
      (String.length scope.queue_root + 1)
      (String.length oid - String.length scope.queue_root - 1)
  in
  let create ~oid ~data =
    if in_queue oid then
      record h ~client
        ~op:(History.Enq { eid = eid_of oid; data })
        ~response:(fun _ -> History.R_unit)
        (fun () -> api.Api.create ~oid ~data)
    else api.Api.create ~oid ~data
  in
  let delete ~oid =
    if in_queue oid then
      record h ~client
        ~op:(History.Deq_elem (eid_of oid))
        ~response:(fun b -> History.R_bool b)
        (fun () -> api.Api.delete ~oid)
    else api.Api.delete ~oid
  in
  let read ~oid =
    if oid = scope.counter_oid then
      record_read h ~client ~op:History.Ctr_read
        ~response:(function
          | Some (o : Api.obj) ->
              History.R_obj { data = o.Api.data; version = o.Api.version }
          | None -> History.R_opt None)
        (fun () -> api.Api.read ~oid)
    else api.Api.read ~oid
  in
  let cas ~expected ~data =
    if expected.Api.oid = scope.counter_oid then
      record h ~client
        ~op:
          (History.Ctr_cas { expected_data = expected.Api.data; data })
        ~response:(fun b -> History.R_bool b)
        (fun () -> api.Api.cas ~expected ~data)
    else api.Api.cas ~expected ~data
  in
  let sub_objects ~oid =
    if oid = scope.queue_root then
      record_read h ~client ~op:History.Q_read
        ~response:(fun objs ->
          History.R_multiset
            (List.sort compare (List.map (fun (o : Api.obj) -> o.Api.data) objs)))
        (fun () -> api.Api.sub_objects ~oid)
    else api.Api.sub_objects ~oid
  in
  let ext =
    Option.map
      (fun (e : Api.ext_api) ->
        let invoke_read name =
          if name = scope.counter_trigger then
            record h ~client ~op:History.Incr
              ~response:(function
                | Value.Int n -> History.R_int n
                | v -> value_response v)
              (fun () -> e.Api.invoke_read name)
          else if name = scope.queue_trigger then
            record h ~client ~op:History.Deq
              ~response:(function
                | Value.Str s -> History.R_opt (Some s)
                | Value.Unit -> History.R_opt None
                | v -> value_response v)
              (fun () -> e.Api.invoke_read name)
          else e.Api.invoke_read name
        in
        { e with Api.invoke_read })
      api.Api.ext
  in
  { api with Api.create; delete; read; cas; sub_objects; ext }
