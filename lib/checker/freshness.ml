(** Stale-read detector: linear freshness sweeps over counter-style
    histories.  See the interface for the two modes; both produce a
    concrete witness pair (the stale read and the fresher response that
    convicts it) instead of a search verdict. *)

open Edc_simnet

type violation = {
  v_client : int;
  v_op : int;
  v_at : Edc_simnet.Sim_time.t;
  v_observed : int;
  v_expected : int;
  v_witness : int;
}

(* Stamp extracted from a completed response: [R_int n] is [n]; [R_obj]
   is its data when that parses as an integer, else its version.  [None]
   for responses that carry no observation of the object's value. *)
let stamp_of_response = function
  | History.R_int n -> Some n
  | History.R_obj { data; version } -> (
      match int_of_string_opt (String.trim data) with
      | Some n -> Some n
      | None -> Some version)
  | History.R_unit | History.R_bool _ | History.R_opt _
  | History.R_multiset _ | History.R_other _ ->
      None

let is_read = function History.Ctr_read -> true | _ -> false

(* One completed stamp-bearing entry, flattened for the sweeps. *)
type obs = {
  o_id : int;
  o_client : int;
  o_inv : Sim_time.t;
  o_ret : Sim_time.t;
  o_stamp : int;
  o_read : bool;
}

let observations entries =
  List.filter_map
    (fun (e : History.entry) ->
      match (e.outcome, e.ret) with
      | History.Done r, Some ret -> (
          match stamp_of_response r with
          | Some stamp ->
              Some
                {
                  o_id = e.id;
                  o_client = e.client;
                  o_inv = e.inv;
                  o_ret = ret;
                  o_stamp = stamp;
                  o_read = is_read e.op;
                }
          | None -> None)
      | _ -> None)
    entries

let check_session entries =
  let obs =
    observations entries
    |> List.sort (fun a b ->
           match Sim_time.compare a.o_ret b.o_ret with
           | 0 -> Int.compare a.o_id b.o_id
           | c -> c)
  in
  (* client -> (highest stamp this session observed, witnessing op id) *)
  let seen : (int, int * int) Hashtbl.t = Hashtbl.create 16 in
  let violations = ref [] in
  List.iter
    (fun o ->
      (match Hashtbl.find_opt seen o.o_client with
      | Some (best, witness) when o.o_read && o.o_stamp < best ->
          violations :=
            {
              v_client = o.o_client;
              v_op = o.o_id;
              v_at = o.o_ret;
              v_observed = o.o_stamp;
              v_expected = best;
              v_witness = witness;
            }
            :: !violations
      | _ -> ());
      match Hashtbl.find_opt seen o.o_client with
      | Some (best, _) when best >= o.o_stamp -> ()
      | _ -> Hashtbl.replace seen o.o_client (o.o_stamp, o.o_id))
    obs;
  List.rev !violations

(* Real-time sweep: walk returns and read-invocations in time order,
   maintaining the highest stamp of any COMPLETED operation; a read's
   bound is that maximum at its invocation instant.  Ties process
   invocations first — an operation returning at the very instant a read
   is invoked is concurrent with it and imposes no bound. *)
type sweep_ev =
  | Ev_inv of obs  (* a read starts: capture the bound *)
  | Ev_ret of obs  (* any observation completes: raise the bound *)

let check_realtime entries =
  let obs = observations entries in
  let events =
    List.concat_map
      (fun o ->
        if o.o_read then [ (o.o_inv, 0, o.o_id, Ev_inv o); (o.o_ret, 1, o.o_id, Ev_ret o) ]
        else [ (o.o_ret, 1, o.o_id, Ev_ret o) ])
      obs
    |> List.sort (fun (ta, pa, ia, _) (tb, pb, ib, _) ->
           match Sim_time.compare ta tb with
           | 0 -> ( match Int.compare pa pb with 0 -> Int.compare ia ib | c -> c)
           | c -> c)
  in
  let bound = ref min_int and witness = ref (-1) in
  let pending : (int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let violations = ref [] in
  List.iter
    (fun (_, _, _, ev) ->
      match ev with
      | Ev_inv o -> Hashtbl.replace pending o.o_id (!bound, !witness)
      | Ev_ret o ->
          (match Hashtbl.find_opt pending o.o_id with
          | Some (b, w) when o.o_stamp < b ->
              violations :=
                {
                  v_client = o.o_client;
                  v_op = o.o_id;
                  v_at = o.o_ret;
                  v_observed = o.o_stamp;
                  v_expected = b;
                  v_witness = w;
                }
                :: !violations
          | _ -> ());
          Hashtbl.remove pending o.o_id;
          if o.o_stamp > !bound then begin
            bound := o.o_stamp;
            witness := o.o_id
          end)
    events;
  List.sort
    (fun a b ->
      match Sim_time.compare a.v_at b.v_at with
      | 0 -> Int.compare a.v_op b.v_op
      | c -> c)
    !violations

let pp_violation ppf v =
  Fmt.pf ppf
    "stale read: client %d op %d returned %d at %.4fs, but %d was already \
     observed (op %d)"
    v.v_client v.v_op v.v_observed
    (Sim_time.to_float_s v.v_at)
    v.v_expected v.v_witness
