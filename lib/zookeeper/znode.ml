(** Data nodes (znodes) and their metadata. *)

module String_set = Set.Make (String)

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
  mutable children : String_set.t;
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
    children = String_set.empty;
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
    num_children = String_set.cardinal n.children;
    data_length = String.length n.data;
  }

let pp_stat ppf (s : stat) =
  Fmt.pf ppf "{v=%d czxid=%d eph=%a children=%d len=%d}" s.version s.czxid
    Fmt.(option ~none:(any "-") int)
    s.ephemeral_owner s.num_children s.data_length
