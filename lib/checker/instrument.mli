(** Transparent history capture over {!Edc_recipes.Coord_api}.

    [wrap history api] returns an API that behaves identically but logs
    every operation on the checked recipe objects (the shared counter and
    the distributed queue, on both their extension-served and traditional
    paths) into [history].  Operations on other objects pass through
    unrecorded.

    Error classification: an error on a write is recorded as [Fail] (no
    effect) only when it is a {e definite} logical rejection from the
    service ("node exists", "bad version", …); anything else — "maybe
    applied" from the resilient session layer, raw timeouts on direct
    clients, unknown strings — is recorded as [Info], i.e. the write may
    or may not have taken effect.  Errors on reads are always [Fail].
    This is conservative: misclassifying a definite failure as ambiguous
    only weakens the check, never yields a false alarm. *)

open Edc_recipes

type scope = {
  counter_oid : string;
  counter_trigger : string;
  queue_root : string;
  queue_trigger : string;
}

val wrap : ?scope:scope -> History.t -> Coord_api.t -> Coord_api.t
(** [scope] defaults to the recipes' well-known object names. *)

val is_definite_error : string -> bool

val record :
  History.t ->
  client:int ->
  op:History.op ->
  response:('a -> History.response) ->
  (unit -> ('a, string) result) ->
  ('a, string) result
(** Record one recipe-level operation (used for lock / election /
    barrier workloads whose semantic event is a whole recipe call, not a
    single API call), with the write error classification above. *)
