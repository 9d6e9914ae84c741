(** Tuples and templates (the Linda-style data model DepSpace augments).

    A tuple is a sequence of typed fields.  A template is a sequence of
    field matchers; a tuple matches a template when they have the same
    arity and every field matches positionally.  Beyond the classic
    exact/wildcard matchers we support a prefix matcher on string fields —
    the mechanism behind the paper's [rdAll(<o, SUB_ANY>)] sub-object
    enumeration (Table 2). *)

type field = Int of int | Str of string

type t = field list

type matcher =
  | Exact of field
  | Any
  | Prefix of string  (** matches string fields with the given prefix *)

type template = matcher list

let field_equal a b =
  match (a, b) with
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Int _, Str _ | Str _, Int _ -> false

let equal a b = List.length a = List.length b && List.for_all2 field_equal a b

let field_matches m f =
  match (m, f) with
  | Any, _ -> true
  | Exact e, f -> field_equal e f
  | Prefix p, Str s ->
      String.length s >= String.length p
      && String.sub s 0 (String.length p) = p
  | Prefix _, Int _ -> false

(** [matches template tuple] *)
let matches template tuple =
  List.length template = List.length tuple
  && List.for_all2 field_matches template tuple

(** [exact tuple] is the template matching exactly [tuple]. *)
let exact tuple = List.map (fun f -> Exact f) tuple

let field_size = function Int _ -> 8 | Str s -> 4 + String.length s

let size t = List.fold_left (fun acc f -> acc + field_size f) 4 t

let matcher_size = function
  | Exact f -> 1 + field_size f
  | Any -> 1
  | Prefix s -> 5 + String.length s

let template_size t = List.fold_left (fun acc m -> acc + matcher_size m) 4 t

let pp_field ppf = function
  | Int i -> Fmt.int ppf i
  | Str s -> Fmt.pf ppf "%S" s

let pp ppf t = Fmt.pf ppf "<%a>" Fmt.(list ~sep:comma pp_field) t

let pp_matcher ppf = function
  | Exact f -> pp_field ppf f
  | Any -> Fmt.string ppf "*"
  | Prefix s -> Fmt.pf ppf "%S*" s

(** Total order on fields and tuples: gives replicas a deterministic
    tie-break rule where needed. *)
let field_compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Int _, Str _ -> -1
  | Str _, Int _ -> 1

let compare a b = List.compare field_compare a b
