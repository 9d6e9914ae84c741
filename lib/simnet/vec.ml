(** Growable vector (OCaml 5.1 predates [Dynarray]).

    Used for replication logs: append-heavy, random read, truncation on log
    repair after leader change. *)

type 'a t = { mutable data : 'a array; mutable size : int }

let create () = { data = [||]; size = 0 }

let length v = v.size
let is_empty v = v.size = 0

(* Slots at or past [size] hold no element.  A dropped element left in
   one would stay reachable until a push overwrote it — a compacted log
   would pin up to a capacity of entries — so they hold an immediate,
   which the GC never follows; no slot past [size] is ever read.  A flat
   float array holds no pointers and is left as it is. *)
let scrub v pos len =
  if Obj.tag (Obj.repr v.data) <> Obj.double_array_tag then
    Array.fill v.data pos len (Obj.magic 0)

let push v x =
  if v.size >= Array.length v.data then begin
    let capacity = Stdlib.max 16 (2 * Array.length v.data) in
    let data = Array.make capacity x in
    Array.blit v.data 0 data 0 v.size;
    v.data <- data;
    scrub v (v.size + 1) (capacity - v.size - 1)
  end;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

let get v i =
  if i < 0 || i >= v.size then invalid_arg "Vec.get: out of bounds";
  v.data.(i)

let set v i x =
  if i < 0 || i >= v.size then invalid_arg "Vec.set: out of bounds";
  v.data.(i) <- x

let last_opt v = if v.size = 0 then None else Some v.data.(v.size - 1)

(** [truncate v n] keeps the first [n] elements and scrubs the slots of
    the dropped ones; the capacity is kept. *)
let truncate v n =
  if n < 0 || n > v.size then invalid_arg "Vec.truncate";
  scrub v n (v.size - n);
  v.size <- n

let clear v = truncate v 0

let iter f v =
  for i = 0 to v.size - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.size - 1 do
    f i v.data.(i)
  done

let fold_left f acc v =
  let acc = ref acc in
  for i = 0 to v.size - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.init v.size (fun i -> v.data.(i))

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

(** [sub v pos len] copies a slice to a list. *)
let sub v pos len =
  if pos < 0 || len < 0 || pos + len > v.size then invalid_arg "Vec.sub";
  List.init len (fun i -> v.data.(pos + i))

(** [replace_from v pos xs] overwrites/extends the vector from index [pos]
    with [xs], truncating anything after (log repair). *)
let replace_from v pos xs =
  if pos < 0 || pos > v.size then invalid_arg "Vec.replace_from";
  truncate v pos;
  List.iter (push v) xs
