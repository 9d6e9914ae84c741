(* In-memory span recorder for the traced run.

   Spans are opened and closed around calls into the program's public
   functions (codec, transport handlers, [Sim.run], [Tcp_transport.poll]).
   Everything runs on one thread and these calls nest strictly, so open
   spans form a stack: a span's self time is its duration minus the time
   covered by the spans opened inside it.  Per-kind totals are exact for
   every span; the first [cap] spans are also kept with their id, parent
   id and client xid and written out as a Chrome trace at the end. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type kind = { name : string; layer : string }

type t = {
  kinds : kind array;
  mutable on : bool;
  count : int array;
  total : int array;  (** inclusive ns per kind *)
  self : int array;  (** exclusive ns per kind *)
  (* open-span stack *)
  mutable depth : int;
  st_start : int array;
  st_child : int array;
  st_id : int array;
  mutable next_id : int;
  (* kept spans *)
  cap : int;
  mutable len : int;
  mutable dropped : int;
  b_kind : int array;
  b_start : int array;
  b_dur : int array;
  b_xid : int array;
  b_id : int array;
  b_parent : int array;
}

let max_depth = 64

let create ~kinds ~cap =
  let n = Array.length kinds in
  {
    kinds;
    on = false;
    count = Array.make n 0;
    total = Array.make n 0;
    self = Array.make n 0;
    depth = 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_id = Array.make max_depth 0;
    next_id = 0;
    cap;
    len = 0;
    dropped = 0;
    b_kind = Array.make cap 0;
    b_start = Array.make cap 0;
    b_dur = Array.make cap 0;
    b_xid = Array.make cap 0;
    b_id = Array.make cap 0;
    b_parent = Array.make cap 0;
  }

let keep t ~kind ~start ~dur ~xid ~id ~parent =
  if t.len < t.cap then begin
    let i = t.len in
    t.b_kind.(i) <- kind;
    t.b_start.(i) <- start;
    t.b_dur.(i) <- dur;
    t.b_xid.(i) <- xid;
    t.b_id.(i) <- id;
    t.b_parent.(i) <- parent;
    t.len <- i + 1
  end
  else t.dropped <- t.dropped + 1

let enter t =
  let d = t.depth in
  t.st_start.(d) <- now_ns ();
  t.st_child.(d) <- 0;
  t.st_id.(d) <- t.next_id;
  t.next_id <- t.next_id + 1;
  t.depth <- d + 1

(* [leave t kind xid] closes the innermost open span as a [kind] span;
   the xid is supplied at close because a decode span learns it only from
   its own result. *)
let leave t kind xid =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let start = t.st_start.(d) in
  let dur = stop - start in
  t.count.(kind) <- t.count.(kind) + 1;
  t.total.(kind) <- t.total.(kind) + dur;
  t.self.(kind) <- t.self.(kind) + dur - t.st_child.(d);
  let parent = if d > 0 then t.st_id.(d - 1) else -1 in
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
  keep t ~kind ~start ~dur ~xid ~id:t.st_id.(d) ~parent

(** [wrap t kind xid f] runs [f ()] inside a [kind] span when tracing is
    on, and bare otherwise. *)
let wrap t kind xid f =
  if not t.on then f ()
  else begin
    enter t;
    match f () with
    | v ->
        leave t kind xid;
        v
    | exception e ->
        leave t kind xid;
        raise e
  end

(** A span that does not nest (a request, from due time to reply). *)
let record t kind ~start ~stop ~xid =
  if t.on then begin
    let dur = stop - start in
    t.count.(kind) <- t.count.(kind) + 1;
    t.total.(kind) <- t.total.(kind) + dur;
    t.self.(kind) <- t.self.(kind) + dur;
    let id = t.next_id in
    t.next_id <- id + 1;
    keep t ~kind ~start ~dur ~xid ~id ~parent:(-1)
  end

let total_ns t k = t.total.(k)
let kept t = t.len
let dropped t = t.dropped

(** Self time per layer and span name, per operation, over [wall_ns] of
    traced time.  Nested spans never include a [nested:false] kind (the
    asynchronous request spans), which are reported separately. *)
let print_table t ~ops ~wall_ns ~nested =
  let ops = float_of_int (max 1 ops) in
  Printf.printf "  %-12s %-22s %10s %12s %12s %8s\n" "layer" "span" "count"
    "incl us/op" "self us/op" "self %";
  let covered = ref 0 in
  Array.iteri
    (fun k { name; layer } ->
      if nested k then begin
        covered := !covered + t.self.(k);
        Printf.printf "  %-12s %-22s %10d %12.3f %12.3f %7.1f%%\n" layer name
          t.count.(k)
          (float_of_int t.total.(k) /. 1e3 /. ops)
          (float_of_int t.self.(k) /. 1e3 /. ops)
          (100. *. float_of_int t.self.(k) /. float_of_int (max 1 wall_ns))
      end)
    t.kinds;
  let rest = wall_ns - !covered in
  Printf.printf "  %-12s %-22s %10s %12s %12.3f %7.1f%%\n" "bench" "loop (outside spans)"
    "-" "-"
    (float_of_int rest /. 1e3 /. ops)
    (100. *. float_of_int rest /. float_of_int (max 1 wall_ns));
  Array.iteri
    (fun k { name; layer } ->
      if not (nested k) then
        Printf.printf "  %-12s %-22s %10d %12.3f %12s %8s\n" layer name
          t.count.(k)
          (float_of_int t.total.(k) /. 1e3 /. float_of_int (max 1 t.count.(k)))
          "(mean)" "-")
    t.kinds

(** Write the kept spans as Chrome trace events (open in Perfetto or
    chrome://tracing); times are microseconds from the first span. *)
let write_chrome t path =
  let oc = open_out path in
  let t0 = if t.len > 0 then t.b_start.(0) else 0 in
  output_string oc "{\"traceEvents\":[\n";
  for i = 0 to t.len - 1 do
    let k = t.kinds.(t.b_kind.(i)) in
    Printf.fprintf oc
      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span\":%d,\"parent\":%d,\"xid\":%d}}\n"
      (if i = 0 then "" else ",")
      k.name k.layer
      (float_of_int (t.b_start.(i) - t0) /. 1e3)
      (float_of_int t.b_dur.(i) /. 1e3)
      (if t.b_parent.(i) < 0 && k.layer = "request" then 2 else 1)
      t.b_id.(i) t.b_parent.(i) t.b_xid.(i)
  done;
  Printf.fprintf oc "],\"otherData\":{\"kept\":%d,\"dropped\":%d}}\n" t.len
    t.dropped;
  close_out oc
