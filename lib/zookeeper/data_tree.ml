(** The replicated hierarchical data store (committed state).

    This is the state machine that transactions (produced by the leader's
    preprocessor) are applied to, in commit order, on every replica.  All
    apply functions are unconditional: validation happened at the leader.
    If an apply precondition is nevertheless violated (which would indicate
    a replication bug), the operation is skipped and reported as an anomaly
    rather than corrupting the tree. *)

module String_set = Znode.String_set

type t = {
  nodes : (string, Znode.t) Hashtbl.t;
  ephemerals : (int, String_set.t ref) Hashtbl.t;  (** session -> paths *)
  mutable next_czxid : int;
  mutable anomalies : int;
  mutable live_gen : int;  (** bumped by every {!export}; see {!image} *)
  mutable images : image list;  (** active copy-on-write handles *)
  mutable cow_copies : int;  (** nodes preserved on first touch (stat) *)
}

(** A copy-on-write snapshot handle.  Capture is O(1): the handle records
    the tree's generation and an (initially empty) overlay; the apply path
    preserves a node's pre-image into every active handle the first time it
    mutates or deletes a node whose [stamp] predates the live generation.
    Reading the handle combines the overlay (preserved pre-images, which
    take precedence) with the live nodes whose stamp still satisfies
    [stamp <= img_gen]; live nodes stamped later were created or touched
    after the capture and are excluded. *)
and image = {
  img_tree : t;
  img_gen : int;
  img_czxid : int;  (** [next_czxid] at capture time *)
  overlay : (string, Znode.t) Hashtbl.t;
  mutable detached : bool;
      (** the overlay alone holds the whole image (the handle was released,
          or the backing tree was replaced by an import) *)
}

let create () =
  let nodes = Hashtbl.create 256 in
  Hashtbl.replace nodes Zpath.root
    (Znode.create ~data:"" ~czxid:0 ~ephemeral_owner:None);
  {
    nodes;
    ephemerals = Hashtbl.create 16;
    next_czxid = 1;
    anomalies = 0;
    live_gen = 0;
    images = [];
    cow_copies = 0;
  }

let find_opt t path = Hashtbl.find_opt t.nodes path
let mem t path = Hashtbl.mem t.nodes path
let node_count t = Hashtbl.length t.nodes
let anomalies t = t.anomalies
let next_czxid t = t.next_czxid

let anomaly t what =
  t.anomalies <- t.anomalies + 1;
  Logs.warn (fun m -> m "data_tree anomaly: %s" what)

(* ------------------------------------------------------------------ *)
(* Queries (served from committed state)                               *)
(* ------------------------------------------------------------------ *)

let get_data t path =
  match find_opt t path with
  | None -> Error Zerror.No_node
  | Some n -> Ok (n.Znode.data, Znode.stat n)

let exists t path = Option.map Znode.stat (find_opt t path)

(** Children names, sorted (ZooKeeper returns them unordered; sorting keeps
    replies deterministic). *)
let get_children t path =
  match find_opt t path with
  | None -> Error Zerror.No_node
  | Some n -> Ok (Znode.Children.elements n.Znode.children)

(** Children with data and stat, sorted by name: the expensive multi-RPC
    [subObjects] pattern collapsed to one server-side scan (extensions use
    this via the state proxy). *)
let children_with_data t path =
  match find_opt t path with
  | None -> Error Zerror.No_node
  | Some n ->
      Ok
        (Znode.Children.elements n.Znode.children
        |> List.filter_map (fun name ->
               let child = Zpath.child path name in
               match find_opt t child with
               | None -> None
               | Some cn -> Some (child, cn.Znode.data, Znode.stat cn)))

let ephemeral_paths t session =
  match Hashtbl.find_opt t.ephemerals session with
  | None -> []
  | Some set -> String_set.elements !set

(* ------------------------------------------------------------------ *)
(* Transaction application                                             *)
(* ------------------------------------------------------------------ *)

let register_ephemeral t session path =
  let set =
    match Hashtbl.find_opt t.ephemerals session with
    | Some s -> s
    | None ->
        let s = ref String_set.empty in
        Hashtbl.replace t.ephemerals session s;
        s
  in
  set := String_set.add path !set

let unregister_ephemeral t session path =
  match Hashtbl.find_opt t.ephemerals session with
  | None -> ()
  | Some s -> s := String_set.remove path !s

(* Copy-on-write first touch: called before a node is mutated or removed.
   If the node predates an active snapshot handle's generation, that handle
   still reads the live record — so preserve a copy into its overlay before
   the mutation lands.  Bumping the stamp afterwards makes the next touch of
   the same node free; with no active handles the whole thing is one integer
   compare. *)
let touch t path (n : Znode.t) =
  if n.Znode.stamp < t.live_gen then begin
    List.iter
      (fun img ->
        if
          (not img.detached)
          && n.Znode.stamp <= img.img_gen
          && not (Hashtbl.mem img.overlay path)
        then begin
          Hashtbl.replace img.overlay path (Znode.copy n);
          t.cow_copies <- t.cow_copies + 1
        end)
      t.images;
    n.Znode.stamp <- t.live_gen
  end

(** [apply_create t ~path ~data ~ephemeral_owner] adds a node whose parent
    must exist.  Assigns the next creation id. *)
let apply_create t ~path ~data ~ephemeral_owner =
  match Zpath.parent path with
  | None -> anomaly t "create of root"
  | Some parent_path -> (
      if Hashtbl.mem t.nodes path then
        anomaly t (Printf.sprintf "create of existing %s" path)
      else
        match find_opt t parent_path with
        | None -> anomaly t (Printf.sprintf "create under missing %s" parent_path)
        | Some parent ->
            let czxid = t.next_czxid in
            t.next_czxid <- t.next_czxid + 1;
            let n = Znode.create ~data ~czxid ~ephemeral_owner in
            (* born after any active capture: excluded by stamp alone *)
            n.Znode.stamp <- t.live_gen;
            Hashtbl.replace t.nodes path n;
            touch t parent_path parent;
            parent.Znode.children <-
              Znode.Children.add (Zpath.basename path) parent.Znode.children;
            parent.Znode.cversion <- parent.Znode.cversion + 1;
            (match ephemeral_owner with
            | Some session -> register_ephemeral t session path
            | None -> ()))

let apply_delete t ~path =
  match find_opt t path with
  | None -> anomaly t (Printf.sprintf "delete of missing %s" path)
  | Some n ->
      if not (Znode.Children.is_empty n.Znode.children) then
        anomaly t (Printf.sprintf "delete of non-empty %s" path)
      else begin
        touch t path n;
        Hashtbl.remove t.nodes path;
        (match n.Znode.ephemeral_owner with
        | Some session -> unregister_ephemeral t session path
        | None -> ());
        match Zpath.parent path with
        | None -> ()
        | Some parent_path -> (
            match find_opt t parent_path with
            | None -> ()
            | Some parent ->
                touch t parent_path parent;
                parent.Znode.children <-
                  Znode.Children.remove (Zpath.basename path)
                    parent.Znode.children;
                parent.Znode.cversion <- parent.Znode.cversion + 1)
      end

(** [apply_set t ~path ~data ~version] overwrites data; [version] is the
    new version computed by the leader. *)
let apply_set t ~path ~data ~version =
  match find_opt t path with
  | None -> anomaly t (Printf.sprintf "set of missing %s" path)
  | Some n ->
      touch t path n;
      n.Znode.data <- data;
      n.Znode.version <- version

(* ------------------------------------------------------------------ *)
(* Snapshot images (state transfer, §3.8)                              *)
(* ------------------------------------------------------------------ *)

(** A serializable, deterministic image of the whole tree: nodes sorted by
    path (so two replicas in the same state serialize to identical bytes —
    the prerequisite for cross-replica checkpoint digests), deep-copied and
    stamp-zeroed.  This is what actually travels in snapshot blobs;
    {!image} handles never leave the replica that captured them. *)
type portable = { img_nodes : (string * Znode.t) list; img_next_czxid : int }

(* Deep copy for a serialized image: the stamp is replica-local (it encodes
   this replica's export cadence), so zero it or identical states would
   serialize to different bytes on different replicas. *)
let copy_for_image (n : Znode.t) =
  let c = Znode.copy n in
  c.Znode.stamp <- 0;
  c

let sort_nodes nodes =
  List.sort (fun (a, _) (b, _) -> String.compare a b) nodes

(** [export t] captures a snapshot handle in O(1): no node is copied until
    (and unless) the live tree mutates it.  The caller should {!release}
    the handle when a newer capture supersedes it, so the apply path stops
    preserving pre-images nobody will read. *)
let export t =
  let img =
    {
      img_tree = t;
      img_gen = t.live_gen;
      img_czxid = t.next_czxid;
      overlay = Hashtbl.create 32;
      detached = false;
    }
  in
  t.live_gen <- t.live_gen + 1;
  t.images <- img :: t.images;
  img

let release img =
  let t = img.img_tree in
  if not img.detached then begin
    img.detached <- true;
    Hashtbl.reset img.overlay
  end;
  t.images <- List.filter (fun i -> i != img) t.images

(** [materialize img] renders the handle as a {!portable} image: overlay
    entries (preserved pre-images) take precedence; live nodes stamped at
    or before the capture generation are unchanged since the capture; live
    nodes stamped later are post-capture creations and excluded. *)
let materialize img =
  let acc =
    Hashtbl.fold (fun p n acc -> (p, copy_for_image n) :: acc) img.overlay []
  in
  let acc =
    if img.detached then acc
    else
      Hashtbl.fold
        (fun p (n : Znode.t) acc ->
          if n.Znode.stamp <= img.img_gen && not (Hashtbl.mem img.overlay p)
          then (p, copy_for_image n) :: acc
          else acc)
        img.img_tree.nodes acc
  in
  { img_nodes = sort_nodes acc; img_next_czxid = img.img_czxid }

(** [export_eager t] is the pre-COW deep-copy export, kept as the baseline
    the snapshot bench compares against and as the oracle for the COW
    differential property test. *)
let export_eager t =
  {
    img_nodes =
      sort_nodes
        (Hashtbl.fold (fun p n acc -> (p, copy_for_image n) :: acc) t.nodes []);
    img_next_czxid = t.next_czxid;
  }

(* The tree's contents are about to be replaced wholesale: any handle still
   capturing it must be completed now (its backing store is going away). *)
let detach_images t =
  List.iter
    (fun img ->
      if not img.detached then begin
        Hashtbl.iter
          (fun p (n : Znode.t) ->
            if n.Znode.stamp <= img.img_gen && not (Hashtbl.mem img.overlay p)
            then Hashtbl.replace img.overlay p (Znode.copy n))
          t.nodes;
        img.detached <- true
      end)
    t.images;
  t.images <- []

(** [import_portable t p] replaces the tree's contents (ephemeral index
    rebuilt from the nodes).  Nodes are copied in, so the image stays
    reusable — importing the same image twice yields two independent
    trees. *)
let import_portable t (p : portable) =
  detach_images t;
  Hashtbl.reset t.nodes;
  Hashtbl.reset t.ephemerals;
  List.iter
    (fun (path, n) ->
      let c = Znode.copy n in
      c.Znode.stamp <- t.live_gen;
      Hashtbl.replace t.nodes path c)
    p.img_nodes;
  List.iter
    (fun (path, (n : Znode.t)) ->
      match n.Znode.ephemeral_owner with
      | Some session -> register_ephemeral t session path
      | None -> ())
    p.img_nodes;
  t.next_czxid <- p.img_next_czxid

let import t img = import_portable t (materialize img)

let cow_copies t = t.cow_copies
let active_images t = List.length t.images

(** [cversion t path] is the parent-child version used to mint sequential
    names at the leader ([0] for missing nodes). *)
let cversion t path =
  match find_opt t path with None -> 0 | Some n -> n.Znode.cversion
