(** Versioned shard map: the deployment's deterministic path → shard
    function (§6j).

    The namespace is partitioned by the *first path component*: every
    object under ["/app1"] lives on the same replication group.  That is
    the coarsest unit subtree-shaped watch patterns ([Under],
    [Starts_with]) can be kept single-shard for, so routing never has to
    fan a watch out across groups.  A first component maps to a shard by
    stable hash, overridable per subtree with explicit placement rules;
    the map carries a version so clients and servers can detect they
    disagree about placement after a map change. *)

type rule = { prefix : string; shard : int }

type t = {
  version : int;
  n_shards : int;
  rules : rule list;  (** explicit placements, first match wins *)
}

let v ?(version = 1) ?(rules = []) n_shards =
  if n_shards <= 0 then invalid_arg "Shard_map.v: n_shards must be positive";
  List.iter
    (fun r ->
      if r.shard < 0 || r.shard >= n_shards then
        invalid_arg "Shard_map.v: rule shard out of range")
    rules;
  { version; n_shards; rules }

let version t = t.version
let n_shards t = t.n_shards
let rules t = t.rules

(** First path component, slash-prefixed: ["/app/x/y"] → ["/app"]; the
    root itself is its own component. *)
let first_component path =
  let len = String.length path in
  if len = 0 || path.[0] <> '/' then path
  else
    match String.index_from_opt path 1 '/' with
    | Some i -> String.sub path 0 i
    | None -> path

(* FNV-1a over the bytes: stable across runs and OCaml versions (the map
   crosses the wire; [Hashtbl.hash] is not a protocol). *)
let stable_hash s =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x01000193 land 0x3FFFFFFF)
    s;
  !h

let rule_matches r path =
  let plen = String.length r.prefix in
  String.length path >= plen
  && String.sub path 0 plen = r.prefix
  && (String.length path = plen || path.[plen] = '/' || r.prefix = "/")

let route t path =
  match List.find_opt (fun r -> rule_matches r path) t.rules with
  | Some r -> r.shard (* validated in range by [v] *)
  | None -> stable_hash (first_component path) mod t.n_shards

(** Shards a subscription pattern can reach.  A pattern whose matches all
    share one first path component resolves to that component's shard;
    anything broader spans every shard. *)
let shards_of_pattern t (p : Edc_core.Subscription.oid_pattern) =
  let single path = `Shard (route t path) in
  let all = `Cross (List.init t.n_shards Fun.id) in
  match p with
  | Edc_core.Subscription.Exact path | Edc_core.Subscription.Under path ->
      (* every match of [Under "/a/b"] starts with component "/a" *)
      if String.length path > 1 && path.[0] = '/' then single path else all
  | Edc_core.Subscription.Starts_with prefix ->
      (* the prefix pins a first component only if it runs past it:
         [Starts_with "/s1/x"] stays on "/s1"'s shard, but "/s1" alone
         also matches "/s10..." which may hash elsewhere *)
      if
        String.length prefix > 1
        && prefix.[0] = '/'
        && String.contains_from prefix 1 '/'
      then single prefix
      else all
  | Edc_core.Subscription.Any_oid -> all

let pp ppf t =
  Fmt.pf ppf "map v%d over %d shards%a" t.version t.n_shards
    Fmt.(
      list ~sep:nop (fun ppf r -> Fmt.pf ppf " [%s->%d]" r.prefix r.shard))
    t.rules
