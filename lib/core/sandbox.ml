(** The extension sandbox (§4.1.2).

    Executes a verified handler under hard resource budgets — interpreter
    steps (CPU), service calls, object creations, and value sizes
    (memory).  All state access goes through the host-provided {!proxy},
    which mirrors the client-visible API (Table 2); the host implements the
    proxy so that *all* changes are either applied atomically on success or
    discarded entirely on abort (EZK: the recorded multi-transaction is
    simply not proposed; EDS: the undo log rolls back).  A crash inside the
    extension therefore never corrupts the service. *)

type limits = {
  max_steps : int;
  max_service_calls : int;
  max_creates : int;
  max_value_bytes : int;
}

let default_limits =
  { max_steps = 4096; max_service_calls = 64; max_creates = 32; max_value_bytes = 256 * 1024 }

type error =
  | Fuel_exhausted
  | Service_call_limit
  | Create_limit
  | Value_too_large of int
  | Type_error of string
  | Undefined_variable of string
  | Unknown_builtin of string
  | Service_error of string
  | Aborted of string

let error_to_string = function
  | Fuel_exhausted -> "step budget exhausted"
  | Service_call_limit -> "service-call budget exhausted"
  | Create_limit -> "object-creation budget exhausted"
  | Value_too_large n -> Printf.sprintf "value of %d bytes exceeds budget" n
  | Type_error msg -> "type error: " ^ msg
  | Undefined_variable v -> "undefined variable " ^ v
  | Unknown_builtin b -> "unknown builtin " ^ b
  | Service_error msg -> "service error: " ^ msg
  | Aborted msg -> "aborted: " ^ msg

(** Host-provided state proxy.  [oid]s are abstract object identifiers
    (paths for EZK, tuple names for EDS). *)
type proxy = {
  p_read : string -> (Value.t, string) result;  (** object record; error if missing *)
  p_exists : string -> bool;
  p_sub_objects : string -> (Value.t list, string) result;
  p_create : sequential:bool -> oid:string -> data:string -> (string, string) result;
  p_update : oid:string -> data:string -> (int, string) result;
  p_cas : oid:string -> expected:string -> data:string -> (bool, string) result;
  p_delete : string -> (bool, string) result;
  p_block : string -> (unit, string) result;
  p_monitor : string -> (unit, string) result;
  p_notify : client:int -> oid:string -> (unit, string) result;
  p_clock : unit -> int;  (** host clock; only reachable when white-listed *)
}

exception Abort_exec of error

type env = {
  proxy : proxy;
  limits : limits;
  vars : (string, Value.t) Hashtbl.t;
  params : (string * Value.t) list;
  mutable steps : int;
  mutable service_calls : int;
  mutable creates : int;
}

let charge_step env =
  env.steps <- env.steps + 1;
  if env.steps > env.limits.max_steps then raise (Abort_exec Fuel_exhausted)

let charge_service env =
  env.service_calls <- env.service_calls + 1;
  if env.service_calls > env.limits.max_service_calls then
    raise (Abort_exec Service_call_limit)

let charge_create env =
  env.creates <- env.creates + 1;
  if env.creates > env.limits.max_creates then raise (Abort_exec Create_limit)

let charge_value env v =
  let n = Value.size v in
  if n > env.limits.max_value_bytes then raise (Abort_exec (Value_too_large n))

let type_error fmt = Format.kasprintf (fun s -> raise (Abort_exec (Type_error s))) fmt

let as_int = function
  | Value.Int i -> i
  | v -> type_error "expected int, got %a" Value.pp v

let as_str = function
  | Value.Str s -> s
  | v -> type_error "expected string, got %a" Value.pp v

let as_list = function
  | Value.List l -> l
  | v -> type_error "expected list, got %a" Value.pp v

let svc_result = function
  | Ok v -> v
  | Error msg -> raise (Abort_exec (Service_error msg))

let compare_values va vb =
  match (va, vb) with
  | Value.Int a, Value.Int b -> Int.compare a b
  | Value.Str a, Value.Str b -> String.compare a b
  | _ -> type_error "cannot order %a and %a" Value.pp va Value.pp vb

(* Strict (non-short-circuit) binary operators, shared with the staged
   compiler ({!Compile}) so both engines agree on operand conversion order
   and error text.  Conversions are explicitly left-to-right.  The caller
   charges the value budget for [Concat] results. *)
let apply_strict_binop op va vb =
  let open Ast in
  match op with
  | Add ->
      let a = as_int va in
      let b = as_int vb in
      Value.Int (a + b)
  | Sub ->
      let a = as_int va in
      let b = as_int vb in
      Value.Int (a - b)
  | Mul ->
      let a = as_int va in
      let b = as_int vb in
      Value.Int (a * b)
  | Div ->
      let d = as_int vb in
      if d = 0 then type_error "division by zero" else Value.Int (as_int va / d)
  | Mod ->
      let d = as_int vb in
      if d = 0 then type_error "modulo by zero" else Value.Int (as_int va mod d)
  | Eq -> Value.Bool (Value.equal va vb)
  | Ne -> Value.Bool (not (Value.equal va vb))
  | Lt -> Value.Bool (compare_values va vb < 0)
  | Le -> Value.Bool (compare_values va vb <= 0)
  | Gt -> Value.Bool (compare_values va vb > 0)
  | Ge -> Value.Bool (compare_values va vb >= 0)
  | Concat ->
      let a = as_str va in
      let b = as_str vb in
      Value.Str (a ^ b)
  | And | Or -> assert false

let rec eval env (e : Ast.expr) : Value.t =
  charge_step env;
  match e with
  | Ast.Unit_lit -> Value.Unit
  | Ast.Bool_lit b -> Value.Bool b
  | Ast.Int_lit i -> Value.Int i
  | Ast.Str_lit s -> Value.Str s
  | Ast.Var v -> (
      match Hashtbl.find_opt env.vars v with
      | Some value -> value
      | None -> raise (Abort_exec (Undefined_variable v)))
  | Ast.Param p -> (
      match List.assoc_opt p env.params with
      | Some value -> value
      | None -> raise (Abort_exec (Undefined_variable ("param " ^ p))))
  | Ast.Field (e, name) -> (
      let v = eval env e in
      match Value.field v name with
      | Some value -> value
      | None -> type_error "no field %S in %a" name Value.pp v)
  | Ast.Not e -> Value.Bool (not (Value.truthy (eval env e)))
  | Ast.Neg e -> Value.Int (-as_int (eval env e))
  | Ast.Binop (op, a, b) -> eval_binop env op a b
  | Ast.Call (name, args) -> (
      let args = List.map (eval env) args in
      (* builtins over collections do work proportional to their input:
         charge fuel accordingly so a "single call" cannot smuggle an
         unbounded scan past the step budget *)
      List.iter
        (function
          | Value.List items -> List.iter (fun _ -> charge_step env) items
          | Value.Unit | Value.Bool _ | Value.Int _ | Value.Str _
          | Value.Record _ ->
              ())
        args;
      match Builtins.find name with
      | None -> raise (Abort_exec (Unknown_builtin name))
      | Some b ->
          if List.length args <> b.Builtins.arity then
            type_error "%s expects %d arguments" name b.Builtins.arity
          else if name = "clock" then Value.Int (env.proxy.p_clock ())
          else (
            match b.Builtins.fn args with
            | Ok v ->
                charge_value env v;
                v
            | Error msg -> raise (Abort_exec (Type_error msg))))
  | Ast.Svc (op, args) -> eval_svc env op args

and eval_binop env op a b =
  let open Ast in
  match op with
  (* short-circuit boolean connectives *)
  | And -> if Value.truthy (eval env a) then Value.Bool (Value.truthy (eval env b)) else Value.Bool false
  | Or -> if Value.truthy (eval env a) then Value.Bool true else Value.Bool (Value.truthy (eval env b))
  | _ ->
      let va = eval env a in
      let vb = eval env b in
      let v = apply_strict_binop op va vb in
      (match op with Concat -> charge_value env v | _ -> ());
      v

and eval_svc env op args =
  charge_service env;
  let arg n = List.nth args n in
  match (op, List.length args) with
  | Ast.Svc_read, 1 ->
      let oid = as_str (eval env (arg 0)) in
      let v = svc_result (env.proxy.p_read oid) in
      charge_value env v;
      v
  | Ast.Svc_exists, 1 ->
      Value.Bool (env.proxy.p_exists (as_str (eval env (arg 0))))
  | Ast.Svc_sub_objects, 1 ->
      let oid = as_str (eval env (arg 0)) in
      let v = Value.List (svc_result (env.proxy.p_sub_objects oid)) in
      charge_value env v;
      v
  | Ast.Svc_create, 2 ->
      charge_create env;
      let oid = as_str (eval env (arg 0)) in
      let data = as_str (eval env (arg 1)) in
      Value.Str (svc_result (env.proxy.p_create ~sequential:false ~oid ~data))
  | Ast.Svc_create_sequential, 2 ->
      charge_create env;
      let oid = as_str (eval env (arg 0)) in
      let data = as_str (eval env (arg 1)) in
      Value.Str (svc_result (env.proxy.p_create ~sequential:true ~oid ~data))
  | Ast.Svc_update, 2 ->
      let oid = as_str (eval env (arg 0)) in
      let data = as_str (eval env (arg 1)) in
      Value.Int (svc_result (env.proxy.p_update ~oid ~data))
  | Ast.Svc_cas, 3 ->
      let oid = as_str (eval env (arg 0)) in
      let expected = as_str (eval env (arg 1)) in
      let data = as_str (eval env (arg 2)) in
      Value.Bool (svc_result (env.proxy.p_cas ~oid ~expected ~data))
  | Ast.Svc_delete, 1 ->
      Value.Bool (svc_result (env.proxy.p_delete (as_str (eval env (arg 0)))))
  | Ast.Svc_block, 1 ->
      svc_result (env.proxy.p_block (as_str (eval env (arg 0))));
      Value.Unit
  | Ast.Svc_monitor, 1 ->
      charge_create env;
      svc_result (env.proxy.p_monitor (as_str (eval env (arg 0))));
      Value.Unit
  | Ast.Svc_notify, 2 ->
      let client = as_int (eval env (arg 0)) in
      let oid = as_str (eval env (arg 1)) in
      svc_result (env.proxy.p_notify ~client ~oid);
      Value.Unit
  | _ -> type_error "wrong arity for service call"

exception Returned of Value.t

let rec exec_stmt env (s : Ast.stmt) =
  charge_step env;
  match s with
  | Ast.Let (v, e) | Ast.Assign (v, e) ->
      let value = eval env e in
      charge_value env value;
      Hashtbl.replace env.vars v value
  | Ast.If (c, a, b) ->
      if Value.truthy (eval env c) then exec_block env a else exec_block env b
  | Ast.For_each (v, e, body) ->
      let items = as_list (eval env e) in
      let saved = Hashtbl.find_opt env.vars v in
      List.iter
        (fun item ->
          Hashtbl.replace env.vars v item;
          exec_block env body)
        items;
      (match saved with
      | Some old -> Hashtbl.replace env.vars v old
      | None -> Hashtbl.remove env.vars v)
  | Ast.Return e -> raise (Returned (eval env e))
  | Ast.Do e -> ignore (eval env e : Value.t)
  | Ast.Abort msg -> raise (Abort_exec (Aborted msg))

and exec_block env body = List.iter (exec_stmt env) body

(** [run ?limits ~proxy ~params handler] executes a handler.  On success
    returns its value ([Unit] when it never [Return]s) plus the resource
    usage; on failure the host must discard all recorded state changes. *)
let run ?(limits = default_limits) ~proxy ~params (handler : Program.handler) =
  let env =
    {
      proxy;
      limits;
      vars = Hashtbl.create 16;
      params;
      steps = 0;
      service_calls = 0;
      creates = 0;
    }
  in
  match exec_block env handler with
  | () -> Ok (Value.Unit, env.steps, env.service_calls)
  | exception Returned v -> Ok (v, env.steps, env.service_calls)
  | exception Abort_exec e -> Error e
