(** Data nodes (znodes) and their metadata. *)

module String_set = Set.Make (String)

module Children = struct
  (* [Sorted] holds strictly ascending names: a decoded image's, which
     arrive in order, stay the list they came in as until the first add
     or remove builds the set, so decoding a node costs no sort. *)
  type t = Sorted of string list | Set of String_set.t

  let empty = Sorted []
  let of_ascending = function [] -> empty | l -> Sorted l
  let set = function Sorted l -> String_set.of_list l | Set s -> s
  let add name c = Set (String_set.add name (set c))
  let remove name c = Set (String_set.remove name (set c))
  let is_empty = function Sorted l -> l = [] | Set s -> String_set.is_empty s

  let cardinal = function
    | Sorted l -> List.length l
    | Set s -> String_set.cardinal s

  let elements = function Sorted l -> l | Set s -> String_set.elements s
  let iter f = function Sorted l -> List.iter f l | Set s -> String_set.iter f s
end

(** Node metadata returned to clients (a subset of ZooKeeper's Stat). *)
type stat = {
  version : int;  (** data version, bumped by each set *)
  czxid : int;  (** global creation order; recipes sort by it *)
  ephemeral_owner : int option;  (** owning session for ephemeral nodes *)
  num_children : int;
  data_length : int;
}

type t = {
  mutable data : string;
  mutable version : int;
  mutable children : Children.t;
  mutable cversion : int;
      (** child version: bumped by every child create/delete; doubles as the
          sequential-name counter (as in ZooKeeper), so it survives leader
          changes via the replicated tree *)
  czxid : int;
  ephemeral_owner : int option;
  mutable stamp : int;
      (** copy-on-write generation: the tree's generation when this node
          was created or last mutated.  A snapshot handle taken at
          generation [g] still sees the node's live record iff
          [stamp <= g]; the first mutation with a newer live generation
          preserves a copy into every active handle before touching the
          record.  Never serialized (zeroed in images) — it is replica-
          local bookkeeping, not replicated state. *)
}

let create ~data ~czxid ~ephemeral_owner =
  {
    data;
    version = 0;
    children = Children.empty;
    cversion = 0;
    czxid;
    ephemeral_owner;
    stamp = 0;
  }

(** Fresh record with the same contents; [children] is an immutable set, so
    a field-level copy fully detaches the node from the original. *)
let copy n = { n with data = n.data }

let stat n =
  {
    version = n.version;
    czxid = n.czxid;
    ephemeral_owner = n.ephemeral_owner;
    num_children = Children.cardinal n.children;
    data_length = String.length n.data;
  }

let pp_stat ppf (s : stat) =
  Fmt.pf ppf "{v=%d czxid=%d eph=%a children=%d len=%d}" s.version s.czxid
    Fmt.(option ~none:(any "-") int)
    s.ephemeral_owner s.num_children s.data_length
