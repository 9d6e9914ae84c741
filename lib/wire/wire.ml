(** Binary framing: tag + minimal varint length + payload (see the
    interface and DESIGN.md §6g). *)

type t = Int of int | Str of string | List of t list
type tree = t

let max_depth = 64

(* Tag registry — never reuse a retired value (§6g). *)
let tag_int = 0x01
let tag_str = 0x02
let tag_list = 0x03

(* ------------------------------------------------------------------ *)
(* Varints                                                             *)
(* ------------------------------------------------------------------ *)

(* Unsigned LEB128 over the full 63-bit word; the operand is treated as a
   bit pattern, so zigzagged negatives (top bit set) encode in ≤ 9 bytes. *)

let varint_size n =
  let rec go n acc = if n lsr 7 = 0 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (- (u land 1))

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let rec payload_size depth v =
  match v with
  | Int n -> varint_size (zigzag n)
  | Str s -> String.length s
  | List l ->
      if depth >= max_depth then
        invalid_arg "Wire.encode: tree deeper than max_depth";
      List.fold_left (fun acc c -> acc + frame_size (depth + 1) c) 0 l

and frame_size depth v =
  let p = payload_size depth v in
  1 + varint_size p + p

let size v = frame_size 1 v

let encode v =
  let total = frame_size 1 v in
  let b = Bytes.create total in
  let pos = ref 0 in
  let put_byte c =
    Bytes.unsafe_set b !pos (Char.unsafe_chr c);
    incr pos
  in
  let put_varint n =
    let n = ref n in
    let fin = ref false in
    while not !fin do
      let byte = !n land 0x7f in
      n := !n lsr 7;
      if !n = 0 then begin
        put_byte byte;
        fin := true
      end
      else put_byte (byte lor 0x80)
    done
  in
  let rec go depth v =
    match v with
    | Int n ->
        put_byte tag_int;
        let z = zigzag n in
        put_varint (varint_size z);
        put_varint z
    | Str s ->
        put_byte tag_str;
        let len = String.length s in
        put_varint len;
        Bytes.blit_string s 0 b !pos len;
        pos := !pos + len
    | List l ->
        put_byte tag_list;
        put_varint (payload_size depth v);
        List.iter (go (depth + 1)) l
  in
  go 1 v;
  Bytes.unsafe_to_string b

(* ------------------------------------------------------------------ *)
(* Decoding (total: any input, clean [Error])                          *)
(* ------------------------------------------------------------------ *)

exception Fail of string

let decode s =
  let input_len = String.length s in
  let get pos = Char.code (String.unsafe_get s pos) in
  (* Minimal-length check: a multi-byte varint whose final (most
     significant) group is zero has a shorter encoding — reject, so each
     value has exactly one accepted byte string. *)
  let read_varint pos limit =
    let value = ref 0
    and shift = ref 0
    and p = ref pos
    and last = ref 0
    and count = ref 0
    and fin = ref false in
    while not !fin do
      if !p >= limit then
        raise
          (Fail
             (Printf.sprintf
                "truncated varint at byte %d (input ends at byte %d)" !p limit));
      if !count >= 9 then
        raise
          (Fail
             (Printf.sprintf
                "varint too long at byte %d (10th continuation byte; max 9)"
                pos));
      let b = get !p in
      incr p;
      incr count;
      last := b land 0x7f;
      value := !value lor (!last lsl !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then fin := true
    done;
    if !count > 1 && !last = 0 then
      raise
        (Fail
           (Printf.sprintf
              "non-minimal varint at byte %d (final group is zero)" pos));
    (!value, !p)
  in
  (* [limit] is the end of the enclosing payload: a frame may never read —
     or declare a length reaching — past it, which kills length bombs
     before any allocation. *)
  let rec parse depth pos limit =
    if depth > max_depth then
      raise
        (Fail
           (Printf.sprintf "nesting deeper than %d at byte %d" max_depth pos));
    if pos >= limit then
      raise
        (Fail
           (Printf.sprintf
              "truncated frame: expected a tag at byte %d but input ends at \
               byte %d"
              pos limit));
    let tag = get pos in
    let len, p = read_varint (pos + 1) limit in
    if len < 0 || len > limit - p then
      raise
        (Fail
           (Printf.sprintf
              "declared length %d at byte %d exceeds the %d bytes available"
              len (pos + 1) (limit - p)));
    let pend = p + len in
    if tag = tag_int then begin
      let z, q = read_varint p pend in
      if q <> pend then
        raise
          (Fail
             (Printf.sprintf
                "int payload length mismatch at byte %d: varint ends at byte \
                 %d, declared end is byte %d"
                p q pend));
      (Int (unzigzag z), pend)
    end
    else if tag = tag_str then (Str (String.sub s p len), pend)
    else if tag = tag_list then begin
      let items = ref [] in
      let q = ref p in
      while !q < pend do
        let v, q' = parse (depth + 1) !q pend in
        items := v :: !items;
        q := q'
      done;
      (List (List.rev !items), pend)
    end
    else
      raise
        (Fail
           (Printf.sprintf
              "unknown tag 0x%02x at byte %d (expected 0x%02x int, 0x%02x \
               str, or 0x%02x list)"
              tag pos tag_int tag_str tag_list))
  in
  match parse 1 0 input_len with
  | v, pos ->
      if pos <> input_len then
        Error
          (Printf.sprintf "trailing bytes: frame ends at byte %d of %d" pos
             input_len)
      else Ok v
  | exception Fail msg -> Error msg

let rec pp ppf = function
  | Int n -> Format.fprintf ppf "%d" n
  | Str s -> Format.fprintf ppf "%S" s
  | List l ->
      Format.fprintf ppf "(@[%a@])" (Format.pp_print_list ~pp_sep:Format.pp_print_space pp) l

(* ------------------------------------------------------------------ *)
(* Streaming writer (zero-tree fast path)                              *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  type w = {
    mutable buf : Bytes.t;
    mutable pos : int;
    mutable stack : int array; (* start offsets of open list frames *)
    mutable sp : int;
  }

  type t = w

  let create ?(capacity = 4096) () =
    { buf = Bytes.create capacity; pos = 0; stack = Array.make 16 0; sp = 0 }

  let reset w =
    w.pos <- 0;
    w.sp <- 0

  (* A small free stack bounds steady-state allocation: the hot send
     path allocs a writer per frame, and without pooling every message
     would re-grow a fresh 4 KiB buffer.  Taking and returning a writer
     allocates nothing.  Writers that grew beyond [max_retained] are
     dropped so one 100 MB snapshot doesn't pin its buffer forever. *)
  let max_pooled = 8
  let max_retained = 1 lsl 20
  let spare = { buf = Bytes.empty; pos = 0; stack = [||]; sp = 0 }
  let pool = Array.make max_pooled spare (* the first [!pooled] are free *)
  let pooled = ref 0

  let alloc () =
    if !pooled = 0 then create ()
    else begin
      decr pooled;
      let w = pool.(!pooled) in
      pool.(!pooled) <- spare;
      reset w;
      w
    end

  let release w =
    if Bytes.length w.buf <= max_retained && !pooled < max_pooled then begin
      pool.(!pooled) <- w;
      incr pooled
    end

  let ensure w n =
    let need = w.pos + n in
    let cap = Bytes.length w.buf in
    if need > cap then begin
      let cap = ref (cap * 2) in
      while !cap < need do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit w.buf 0 nb 0 w.pos;
      w.buf <- nb
    end

  let put_byte w c =
    Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr c);
    w.pos <- w.pos + 1

  let put_varint w n =
    let n = ref n in
    let fin = ref false in
    while not !fin do
      let byte = !n land 0x7f in
      n := !n lsr 7;
      if !n = 0 then begin
        put_byte w byte;
        fin := true
      end
      else put_byte w (byte lor 0x80)
    done

  (* Fast path: a zigzagged value below 0x80 is one varint byte, whose
     own length varint is the single byte 0x01 — three bytes total,
     written without the generic varint loops.  Identical bytes to the
     general path, which handles everything larger. *)
  let int w n =
    let z = zigzag n in
    if z >= 0 && z < 0x80 then begin
      ensure w 3;
      put_byte w tag_int;
      put_byte w 1;
      put_byte w z
    end
    else begin
      let zsz = varint_size z in
      ensure w (1 + varint_size zsz + zsz);
      put_byte w tag_int;
      put_varint w zsz;
      put_varint w z
    end

  let str w s =
    let len = String.length s in
    if len < 0x80 then begin
      ensure w (2 + len);
      put_byte w tag_str;
      put_byte w len;
      Bytes.blit_string s 0 w.buf w.pos len;
      w.pos <- w.pos + len
    end
    else begin
      ensure w (1 + varint_size len + len);
      put_byte w tag_str;
      put_varint w len;
      Bytes.blit_string s 0 w.buf w.pos len;
      w.pos <- w.pos + len
    end

  let bool w b = int w (if b then 1 else 0)

  (* A list's header is reserved before its children are written: two
     bytes, the tag and a one-byte length, which is all a list under 128
     bytes needs. *)
  let begin_list w =
    if w.sp + 1 >= max_depth then
      invalid_arg "Wire.Writer: tree deeper than max_depth";
    if w.sp = Array.length w.stack then begin
      let ns = Array.make (w.sp * 2) 0 in
      Array.blit w.stack 0 ns 0 w.sp;
      w.stack <- ns
    end;
    ensure w 2;
    w.stack.(w.sp) <- w.pos;
    w.sp <- w.sp + 1;
    w.pos <- w.pos + 2

  (* Now that the payload length is known, fill in the reserved header.
     A payload of 128 bytes or more needs a longer length varint, so only
     such a list shifts its payload right, by the extra header bytes.
     The bytes are identical to [encode]'s. *)
  let end_list w =
    if w.sp = 0 then invalid_arg "Wire.Writer.end_list: no open list";
    w.sp <- w.sp - 1;
    let start = w.stack.(w.sp) in
    let plen = w.pos - start - 2 in
    if plen < 0x80 then begin
      Bytes.unsafe_set w.buf start (Char.unsafe_chr tag_list);
      Bytes.unsafe_set w.buf (start + 1) (Char.unsafe_chr plen)
    end
    else begin
      let extra = varint_size plen - 1 in
      ensure w extra;
      Bytes.blit w.buf (start + 2) w.buf (start + 2 + extra) plen;
      let fin = w.pos + extra in
      w.pos <- start;
      put_byte w tag_list;
      put_varint w plen;
      w.pos <- fin
    end

  let option w f = function
    | None ->
        begin_list w;
        end_list w
    | Some x ->
        begin_list w;
        f w x;
        end_list w

  let list w f l =
    begin_list w;
    List.iter (f w) l;
    end_list w

  let rec tree w = function
    | Int n -> int w n
    | Str s -> str w s
    | List l ->
        begin_list w;
        List.iter (tree w) l;
        end_list w

  let contents w =
    if w.sp <> 0 then invalid_arg "Wire.Writer.contents: open list";
    Bytes.sub_string w.buf 0 w.pos

  let encode write x =
    let w = alloc () in
    match write w x with
    | () ->
        let s = contents w in
        release w;
        s
    | exception e ->
        release w;
        raise e

  let with_writer f = encode (fun w f -> f w) f
end

(* ------------------------------------------------------------------ *)
(* Streaming reader (slice cursor; total, like [decode])               *)
(* ------------------------------------------------------------------ *)

module Reader = struct
  type r = {
    mutable s : string;
    mutable base : int; (* frame start in [s]; error offsets are relative to it *)
    mutable input_end : int;
    mutable pos : int;
    mutable limits : int array; (* payload-end offsets of open lists *)
    mutable sp : int;
  }

  type t = r

  exception Fail of string

  let off r = r.pos - r.base
  let error _r msg = raise (Fail msg)

  let fail r fmt =
    Printf.ksprintf (fun m -> error r m) fmt

  let limit r = if r.sp = 0 then r.input_end else r.limits.(r.sp - 1)
  let get r p = Char.code (String.unsafe_get r.s p)

  (* Same acceptance rules as [decode]'s varint reader: bounded by the
     enclosing payload, ≤ 9 bytes, minimal length. *)
  let read_varint r lim =
    let start = off r in
    let value = ref 0
    and shift = ref 0
    and last = ref 0
    and count = ref 0
    and fin = ref false in
    while not !fin do
      if r.pos >= lim then
        fail r "truncated varint at byte %d (input ends at byte %d)" (off r)
          (lim - r.base);
      if !count >= 9 then
        fail r "varint too long at byte %d (10th continuation byte; max 9)"
          start;
      let b = get r r.pos in
      r.pos <- r.pos + 1;
      incr count;
      last := b land 0x7f;
      value := !value lor (!last lsl !shift);
      shift := !shift + 7;
      if b land 0x80 = 0 then fin := true
    done;
    if !count > 1 && !last = 0 then
      fail r "non-minimal varint at byte %d (final group is zero)" start;
    !value

  let check_frame r tag name =
    if r.sp + 1 > max_depth then
      fail r "nesting deeper than %d at byte %d" max_depth (off r);
    let lim = limit r in
    if r.pos >= lim then
      fail r
        "truncated frame: expected a tag at byte %d but input ends at byte %d"
        (off r) (lim - r.base);
    let t = get r r.pos in
    if t <> tag then
      fail r "expected %s (tag 0x%02x) at byte %d, got tag 0x%02x" name tag
        (off r) t;
    r.pos <- r.pos + 1;
    let len_at = off r in
    let len = read_varint r lim in
    if len > lim - r.pos then
      fail r "declared length %d at byte %d exceeds the %d bytes available" len
        len_at (lim - r.pos);
    r.pos + len

  let int_slow r =
    let pend = check_frame r tag_int "int" in
    let z = read_varint r pend in
    if r.pos <> pend then
      fail r
        "int payload length mismatch at byte %d: varint ends at byte %d, \
         declared end is byte %d"
        (off r) (off r) (pend - r.base);
    unzigzag z

  (* Fast path for an int frame in canonical form: a one-byte length
     [n] of 1..9, then a varint whose first [n - 1] bytes carry the
     continuation bit and whose last byte does not, and is not zero
     unless it is the only byte.  That is exactly a minimal varint
     ending at the declared end, so every acceptance rule holds; the
     depth check only matters at [max_depth] (guarded).  Anything else
     falls back to the checking path, which rejects it. *)
  let int r =
    let p = r.pos in
    let lim = limit r in
    if r.sp < max_depth && p + 3 <= lim && get r p = tag_int then begin
      let n = get r (p + 1) in
      let q = p + 2 in
      if n >= 1 && n <= 9 && n <= lim - q then begin
        let last = q + n - 1 in
        let z = ref 0 and i = ref q and shift = ref 0 in
        while !i < last && get r !i >= 0x80 do
          z := !z lor ((get r !i land 0x7f) lsl !shift);
          shift := !shift + 7;
          incr i
        done;
        let b = get r last in
        if !i = last && b < 0x80 && (b <> 0 || n = 1) then begin
          r.pos <- last + 1;
          unzigzag (!z lor (b lsl !shift))
        end
        else int_slow r
      end
      else int_slow r
    end
    else int_slow r

  (* The length varint at [q] (where [q < lim]) when it is one or two
     bytes long, minimal, and inside [lim]; -1 otherwise, and the caller
     falls back to the checks.  A minimal one-byte length is below 0x80
     and a two-byte one is not, so the header's size follows from the
     value: see [payload_at]. *)
  let short_len r q lim =
    let b1 = get r q in
    if b1 < 0x80 then b1
    else if q + 1 < lim then
      let b2 = get r (q + 1) in
      if b2 <> 0 && b2 < 0x80 then (b1 land 0x7f) lor (b2 lsl 7) else -1
    else -1

  let payload_at p len = if len < 0x80 then p + 2 else p + 3

  let str_slow r =
    let pend = check_frame r tag_str "str" in
    let v = String.sub r.s r.pos (pend - r.pos) in
    r.pos <- pend;
    v

  let str r =
    let p = r.pos in
    let lim = limit r in
    if r.sp < max_depth && p + 2 <= lim && get r p = tag_str then begin
      let len = short_len r (p + 1) lim in
      let q = payload_at p len in
      if len >= 0 && len <= lim - q then begin
        let v = String.sub r.s q len in
        r.pos <- q + len;
        v
      end
      else str_slow r
    end
    else str_slow r

  let bool r =
    match int r with
    | 0 -> false
    | 1 -> true
    | n -> fail r "expected bool, got %d" n

  let begin_list_slow r =
    let pend = check_frame r tag_list "list" in
    if r.sp = Array.length r.limits then begin
      let nl = Array.make (r.sp * 2) 0 in
      Array.blit r.limits 0 nl 0 r.sp;
      r.limits <- nl
    end;
    r.limits.(r.sp) <- pend;
    r.sp <- r.sp + 1

  let begin_list r =
    let p = r.pos in
    let lim = limit r in
    if
      r.sp < max_depth
      && r.sp < Array.length r.limits
      && p + 2 <= lim
      && get r p = tag_list
    then begin
      let len = short_len r (p + 1) lim in
      let q = payload_at p len in
      if len >= 0 && len <= lim - q then begin
        r.limits.(r.sp) <- q + len;
        r.sp <- r.sp + 1;
        r.pos <- q
      end
      else begin_list_slow r
    end
    else begin_list_slow r

  let has_more r = r.sp > 0 && r.pos < r.limits.(r.sp - 1)

  (* Closing a list with unread items is a shape error: a shape reader
     never accepts a frame carrying extra fields. *)
  let end_list r =
    if r.sp = 0 then invalid_arg "Wire.Reader.end_list: no open list";
    let lim = r.limits.(r.sp - 1) in
    if r.pos <> lim then
      fail r "unconsumed bytes in list at byte %d (payload ends at byte %d)"
        (off r) (lim - r.base);
    r.sp <- r.sp - 1

  let peek_list r =
    let lim = limit r in
    r.pos < lim && get r r.pos = tag_list

  let option r f =
    begin_list r;
    let v = if has_more r then Some (f r) else None in
    end_list r;
    v

  let list r f =
    begin_list r;
    let acc = ref [] in
    while has_more r do
      acc := f r :: !acc
    done;
    end_list r;
    List.rev !acc

  let rec tree r =
    let lim = limit r in
    if r.pos >= lim then
      fail r
        "truncated frame: expected a tag at byte %d but input ends at byte %d"
        (off r) (lim - r.base);
    let t = get r r.pos in
    if t = tag_int then Int (int r)
    else if t = tag_str then Str (str r)
    else if t = tag_list then begin
      begin_list r;
      let items = ref [] in
      while has_more r do
        items := tree r :: !items
      done;
      end_list r;
      List (List.rev !items)
    end
    else
      fail r
        "unknown tag 0x%02x at byte %d (expected 0x%02x int, 0x%02x str, or \
         0x%02x list)"
        t (off r) tag_int tag_str tag_list

  (* Readers come from a free stack, like writers, so a decode allocates
     only what it returns.  A nested [run_sub] (a shape reader that
     decodes an embedded blob) takes a reader of its own. *)
  let max_pooled = 8
  let spare = { s = ""; base = 0; input_end = 0; pos = 0; limits = [||]; sp = 0 }
  let pool = Array.make max_pooled spare (* the first [!pooled] are free *)
  let pooled = ref 0

  let alloc s pos len =
    let r =
      if !pooled = 0 then { spare with limits = Array.make 16 0 }
      else begin
        decr pooled;
        let r = pool.(!pooled) in
        pool.(!pooled) <- spare;
        r
      end
    in
    r.s <- s;
    r.base <- pos;
    r.input_end <- pos + len;
    r.pos <- pos;
    r.sp <- 0;
    r

  (* Drops [r]'s input, which may be a large buffer, before pooling it. *)
  let release r =
    r.s <- "";
    if !pooled < max_pooled then begin
      pool.(!pooled) <- r;
      incr pooled
    end

  let run_sub s ~pos ~len f =
    if pos < 0 || len < 0 || pos + len > String.length s then
      Error
        (Printf.sprintf "Wire.Reader.run_sub: slice [%d,%d) out of bounds" pos
           (pos + len))
    else
      let r = alloc s pos len in
      let res =
        match f r with
        | v ->
            if r.sp <> 0 then Error "reader finished with an open list"
            else if r.pos <> r.input_end then
              Error
                (Printf.sprintf "trailing bytes: frame ends at byte %d of %d"
                   (off r) len)
            else Ok v
        | exception Fail msg -> Error msg
        | exception e ->
            release r;
            raise e
      in
      release r;
      res

  let run s f = run_sub s ~pos:0 ~len:(String.length s) f
end
