(** An extension: subscriptions plus handlers — the paper's Figure 1
    interface, as data.

    [on_operation] plays [handleOperation]: it runs *instead of* the
    matched request, and its return value becomes the client's reply; the
    host binds parameters [oid], [data], [client], and [kind].
    [on_event] plays [handleEvent], with parameters [oid], [kind], and
    [client]. *)

type handler = Ast.stmt list

type t = {
  name : string;
  op_subs : Subscription.operation_sub list;
  event_subs : Subscription.event_sub list;
  on_operation : handler option;
  on_event : handler option;
}

val make :
  string ->
  ?op_subs:Subscription.operation_sub list ->
  ?event_subs:Subscription.event_sub list ->
  ?on_operation:handler ->
  ?on_event:handler ->
  unit ->
  t

(** Aggregate metrics over both handlers (the verifier's bounds). *)

val nodes : t -> int
val depth : t -> int
val loop_nesting : t -> int
val builtin_calls : t -> string list
