(** White-listed builtin functions available to extensions.

    The paper's white list contains "basic math, boolean, and string
    operations" plus, for passively-replicated systems only,
    nondeterministic operations (§4.1.1).  Arithmetic and boolean
    connectives are language syntax here; the table below holds the named
    helpers.  Each entry records its determinism so the verifier can reject
    nondeterministic calls in actively-replicated deployments (EDS). *)

type outcome = (Value.t, string) result

type t = {
  arity : int;
  deterministic : bool;
  fn : Value.t list -> outcome;
}

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let v_int = function Value.Int i -> Ok i | v -> err "expected int, got %a" Value.pp v
let v_str = function Value.Str s -> Ok s | v -> err "expected string, got %a" Value.pp v
let v_list = function Value.List l -> Ok l | v -> err "expected list, got %a" Value.pp v

let ( let* ) = Result.bind

let table : (string * t) list =
  [
    (* --- string operations --- *)
    ( "str_len",
      { arity = 1; deterministic = true;
        fn = (fun args -> match args with
          | [ s ] -> let* s = v_str s in Ok (Value.Int (String.length s))
          | _ -> err "arity") } );
    ( "str_sub",
      { arity = 3; deterministic = true;
        fn = (fun args -> match args with
          | [ s; pos; len ] ->
              let* s = v_str s in
              let* pos = v_int pos in
              let* len = v_int len in
              if pos < 0 || len < 0 || pos + len > String.length s then
                err "str_sub out of range"
              else Ok (Value.Str (String.sub s pos len))
          | _ -> err "arity") } );
    ( "str_index",
      { arity = 2; deterministic = true;
        fn = (fun args -> match args with
          | [ s; c ] ->
              let* s = v_str s in
              let* c = v_str c in
              if String.length c <> 1 then err "str_index wants a single char"
              else Ok (Value.Int (match String.index_opt s c.[0] with Some i -> i | None -> -1))
          | _ -> err "arity") } );
    ( "str_suffix_after",
      { arity = 2; deterministic = true;
        fn = (fun args -> match args with
          | [ s; sep ] ->
              let* s = v_str s in
              let* sep = v_str sep in
              if String.length sep <> 1 then err "str_suffix_after wants a single char"
              else
                Ok (Value.Str (match String.rindex_opt s sep.[0] with
                    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
                    | None -> s))
          | _ -> err "arity") } );
    ( "int_of_str",
      { arity = 1; deterministic = true;
        fn = (fun args -> match args with
          | [ s ] ->
              let* s = v_str s in
              (match int_of_string_opt (String.trim s) with
              | Some i -> Ok (Value.Int i)
              | None -> err "int_of_str: %S" s)
          | _ -> err "arity") } );
    ( "str_of_int",
      { arity = 1; deterministic = true;
        fn = (fun args -> match args with
          | [ i ] -> let* i = v_int i in Ok (Value.Str (string_of_int i))
          | _ -> err "arity") } );
    (* --- math --- *)
    ( "min",
      { arity = 2; deterministic = true;
        fn = (fun args -> match args with
          | [ a; b ] -> let* a = v_int a in let* b = v_int b in Ok (Value.Int (Stdlib.min a b))
          | _ -> err "arity") } );
    ( "max",
      { arity = 2; deterministic = true;
        fn = (fun args -> match args with
          | [ a; b ] -> let* a = v_int a in let* b = v_int b in Ok (Value.Int (Stdlib.max a b))
          | _ -> err "arity") } );
    ( "abs",
      { arity = 1; deterministic = true;
        fn = (fun args -> match args with
          | [ a ] -> let* a = v_int a in Ok (Value.Int (Stdlib.abs a))
          | _ -> err "arity") } );
    (* --- lists --- *)
    ( "list_len",
      { arity = 1; deterministic = true;
        fn = (fun args -> match args with
          | [ l ] -> let* l = v_list l in Ok (Value.Int (List.length l))
          | _ -> err "arity") } );
    ( "list_nth",
      { arity = 2; deterministic = true;
        fn = (fun args -> match args with
          | [ l; i ] ->
              let* l = v_list l in
              let* i = v_int i in
              (match List.nth_opt l i with
              | Some v -> Ok v
              | None -> err "list_nth out of range")
          | _ -> err "arity") } );
    ( "list_empty",
      { arity = 1; deterministic = true;
        fn = (fun args -> match args with
          | [ l ] -> let* l = v_list l in Ok (Value.Bool (l = []))
          | _ -> err "arity") } );
    (* --- object-record helpers --- *)
    ( "field",
      { arity = 2; deterministic = true;
        fn = (fun args -> match args with
          | [ r; name ] ->
              let* name = v_str name in
              (match Value.field r name with
              | Some v -> Ok v
              | None -> err "no field %s" name)
          | _ -> err "arity") } );
    ( "min_by_ctime",
      (* the recipes' "object with lowest creation timestamp" in one call *)
      { arity = 1; deterministic = true;
        fn = (fun args -> match args with
          | [ l ] ->
              let* l = v_list l in
              let ctime v =
                match Value.field v "ctime" with Some (Value.Int i) -> i | _ -> max_int
              in
              (match l with
              | [] -> Ok Value.Unit
              | first :: rest ->
                  Ok (List.fold_left (fun best v -> if ctime v < ctime best then v else best) first rest))
          | _ -> err "arity") } );
    (* --- nondeterministic (passive replication only, §4.1.1) --- *)
    ( "clock",
      { arity = 0; deterministic = false;
        fn = (fun _ -> err "clock is provided by the host") } );
  ]

let find name = List.assoc_opt name table
let names = List.map fst table
