(** The extension sandbox (§4.1.2).

    Executes a verified handler under hard resource budgets; all state
    access goes through the host-provided {!proxy}, which mirrors the
    client-visible API (Table 2).  Hosts implement the proxy so that all
    changes apply atomically on success and vanish entirely on abort —
    a crashing or over-budget extension never corrupts the service. *)

type limits = {
  max_steps : int;  (** interpreter steps (CPU bound) *)
  max_service_calls : int;  (** proxied coordination-service calls *)
  max_creates : int;  (** object creations per invocation *)
  max_value_bytes : int;  (** size bound on any single value (memory) *)
}

val default_limits : limits

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

val error_to_string : error -> string

(** Host-provided state proxy.  [oid]s are abstract object identifiers
    (paths for EZK, tuple names for EDS). *)
type proxy = {
  p_read : string -> (Value.t, string) result;
  p_exists : string -> bool;
  p_sub_objects : string -> (Value.t list, string) result;
  p_create : sequential:bool -> oid:string -> data:string -> (string, string) result;
  p_update : oid:string -> data:string -> (int, string) result;
  p_cas : oid:string -> expected:string -> data:string -> (bool, string) result;
  p_delete : string -> (bool, string) result;
  p_block : string -> (unit, string) result;
  p_monitor : string -> (unit, string) result;
  p_notify : client:int -> oid:string -> (unit, string) result;
  p_clock : unit -> int;
}

(** Raised internally on budget exhaustion or runtime faults; exposed so
    the staged compiler ({!Compile}) can charge the same budgets and
    surface the same verdicts as the interpreter. *)
exception Abort_exec of error

(** Shared evaluation helpers.  The staged compiler must agree with the
    interpreter on conversions, error text, and ordering down to the
    byte, or replicas running different engines would diverge. *)

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a
val as_int : Value.t -> int
val as_str : Value.t -> string
val as_list : Value.t -> Value.t list
val svc_result : ('a, string) result -> 'a
val compare_values : Value.t -> Value.t -> int

(** [apply_strict_binop op va vb] applies a non-short-circuit operator with
    explicit left-to-right conversion order.  The caller charges the value
    budget for [Concat] results.  [And]/[Or] are the caller's job. *)
val apply_strict_binop : Ast.binop -> Value.t -> Value.t -> Value.t

(** [run ?limits ~proxy ~params handler] executes a handler; [params] bind
    the request attributes ([oid], [data], [client], [kind]).  On success
    returns the handler's value plus (steps, service calls) consumed; on
    [Error] the host must discard all recorded state changes. *)
val run :
  ?limits:limits ->
  proxy:proxy ->
  params:(string * Value.t) list ->
  Program.handler ->
  (Value.t * int * int, error) result
