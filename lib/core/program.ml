(** An extension: subscriptions plus handlers (the paper's Figure 1
    interface, as data).

    [on_operation] plays the role of [handleOperation]: it runs instead of
    the matched request and its return value becomes the client's reply.
    Its parameters are bound by the host: [oid] (the object id of the
    request), [data] (payload, when the operation carries one), [client]
    (the invoking client's id), and [kind] (operation kind name).

    [on_event] plays the role of [handleEvent], with parameters [oid],
    [kind], and — for deletion events of monitored objects — [client]
    bound to the owner when known. *)

type handler = Ast.stmt list

type t = {
  name : string;
  op_subs : Subscription.operation_sub list;
  event_subs : Subscription.event_sub list;
  on_operation : handler option;
  on_event : handler option;
}

let make name ?(op_subs = []) ?(event_subs = []) ?on_operation ?on_event () =
  { name; op_subs; event_subs; on_operation; on_event }

(** Total AST nodes across both handlers (verifier size bound). *)
let nodes t =
  let h = function None -> 0 | Some body -> Ast.stmts_nodes body in
  h t.on_operation + h t.on_event

let depth t =
  let h = function None -> 0 | Some body -> Ast.stmts_depth body in
  Stdlib.max (h t.on_operation) (h t.on_event)

let loop_nesting t =
  let h = function None -> 0 | Some body -> Ast.loop_nesting body in
  Stdlib.max (h t.on_operation) (h t.on_event)

let builtin_calls t =
  let h = function None -> [] | Some body -> Ast.stmts_calls [] body in
  h t.on_operation @ h t.on_event

