(* Minimal JSON emitter for machine-readable bench results (BENCH_*.json).
   Hand-rolled on purpose: the bench harness has no JSON dependency and the
   values we emit are plain records of numbers and strings.  The schema is
   documented in EXPERIMENTS.md. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let rec emit buf ~indent v =
  let pad n = String.make n ' ' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
      else Buffer.add_string buf "null" (* nan/inf are not JSON *)
  | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          emit buf ~indent:(indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          emit buf ~indent:(indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 1024 in
  emit buf ~indent:0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Results land next to the repo root (the cwd of [dune exec]) as
   BENCH_<suite>.json, where CI picks them up as artifacts. *)
let write_suite ?(schema = 1) ~suite fields =
  let path = Printf.sprintf "BENCH_%s.json" suite in
  let oc = open_out path in
  output_string oc
    (to_string (Obj (("suite", Str suite) :: ("schema", Int schema) :: fields)));
  close_out oc;
  Printf.printf "  [bench] wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Reader — just enough JSON to load committed baselines back          *)
(* ------------------------------------------------------------------ *)

exception Parse_fail of string

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_fail (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let number () =
    let start = !pos in
    let is_num = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num s.[!pos] do
      incr pos
    done;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let pstring () =
    expect '"';
    let buf = Buffer.create 16 in
    let fin = ref false in
    while not !fin do
      if !pos >= n then fail "unterminated string";
      (match s.[!pos] with
      | '"' -> fin := true
      | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> (
              if !pos + 4 >= n then fail "bad unicode escape";
              match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some code when code < 0x80 ->
                  Buffer.add_char buf (Char.chr code);
                  pos := !pos + 4
              | Some _ -> fail "non-ascii unicode escape"
              | None -> fail "bad unicode escape")
          | _ -> fail "bad escape")
      | c -> Buffer.add_char buf c);
      incr pos
    done;
    Buffer.contents buf
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let fin = ref false in
          while not !fin do
            skip_ws ();
            let k = pstring () in
            skip_ws ();
            expect ':';
            let v = value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some '}' ->
                incr pos;
                fin := true
            | _ -> fail "expected ',' or '}'"
          done;
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let fin = ref false in
          while not !fin do
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some ']' ->
                incr pos;
                fin := true
            | _ -> fail "expected ',' or ']'"
          done;
          List (List.rev !items)
        end
    | Some '"' -> Str (pstring ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "unexpected character"
  in
  try
    let v = value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing bytes at %d" !pos)
    else Ok v
  with Parse_fail m -> Error m

(* The WGL verdict as it appears in every BENCH file's linearizability rows. *)
let of_verdict = function
  | Edc_checker.Wgl.Linearizable _ -> Str "linearizable"
  | Edc_checker.Wgl.Non_linearizable _ -> Str "violation"
  | Edc_checker.Wgl.Budget_exhausted _ -> Str "inconclusive"

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_list = function List l -> Some l | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e -> Error e
  | s -> parse s
