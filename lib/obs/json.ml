type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> Bool.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List xs, List ys ->
    List.length xs = List.length ys && List.for_all2 equal xs ys
  | Obj xs, Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2)
         xs ys
  | (Null | Bool _ | Int _ | Float _ | Str _ | List _ | Obj _), _ -> false

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* The C primitive behind [Printf]'s [%g]/[%f] and [string_of_float].
   Called directly it renders the same bytes as [Fmt.str] without going
   through the format interpreter, which dominated the cost of a record. *)
external format_float : string -> float -> string = "caml_format_float"

let float_to_string x =
  if Float.is_nan x then "NaN"
  else if Float.equal x Float.infinity then "Infinity"
  else if Float.equal x Float.neg_infinity then "-Infinity"
  else if Float.is_integer x && Float.abs x < 1e16 then format_float "%.1f" x
  else
    let exact s = Float.equal (float_of_string s) x in
    let s = format_float "%.15g" x in
    let s =
      if exact s then s
      else
        let s = format_float "%.16g" x in
        if exact s then s else format_float "%.17g" x
    in
    (* %g drops the exponent when it fits the precision, so a large
       integral float (e.g. 2^54-ish) can render as bare digits — which
       would decode as Int.  Keep it a float on the wire. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let pad buf n =
  for _ = 1 to n do
    Buffer.add_char buf ' '
  done

let to_buffer buf v =
  let rec go indent v =
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_to_string f)
    | Str s -> escape_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad buf (indent + 2);
          go (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad buf indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad buf (indent + 2);
          escape_string buf k;
          Buffer.add_string buf ": ";
          go (indent + 2) item)
        fields;
      Buffer.add_char buf '\n';
      pad buf indent;
      Buffer.add_char buf '}'
  in
  go 0 v

let to_string v =
  let buf = Buffer.create 1024 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string * int

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some got when Char.equal got c -> advance ()
    | Some got -> fail (Fmt.str "expected %C, found %C" c got)
    | None -> fail (Fmt.str "expected %C, found end of input" c)
  in
  let literal word value =
    let k = String.length word in
    if !pos + k <= n && String.equal (String.sub s !pos k) word then begin
      pos := !pos + k;
      value
    end
    else fail (Fmt.str "invalid token (expected %s)" word)
  in
  let utf8_of_code buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | None -> fail (Fmt.str "invalid \\u escape %S" hex)
            | Some code when code >= 0xD800 && code <= 0xDFFF ->
              fail "surrogate \\u escapes are not supported"
            | Some code ->
              pos := !pos + 4;
              utf8_of_code buf code)
          | c -> fail (Fmt.str "invalid escape \\%c" c)));
        loop ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if Option.equal Char.equal (peek ()) (Some '-') then advance ();
    let is_float = ref false in
    let rec loop () =
      match peek () with
      | Some ('0' .. '9') ->
        advance ();
        loop ()
      | Some ('.' | 'e' | 'E' | '+' | '-') ->
        is_float := true;
        advance ();
        loop ()
      | _ -> ()
    in
    loop ();
    if !pos = start then fail "expected a number";
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail (Fmt.str "invalid number %S" text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Fmt.str "invalid number %S" text))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if Option.equal Char.equal (peek ()) (Some '}') then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | _ -> expect '}'
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if Option.equal Char.equal (peek ()) (Some ']') then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | _ -> expect ']'
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some 'N' -> literal "NaN" (Float Float.nan)
    | Some 'I' -> literal "Infinity" (Float Float.infinity)
    | Some '-' when !pos + 1 < n && Char.equal s.[!pos + 1] 'I' ->
      advance ();
      literal "Infinity" (Float Float.neg_infinity)
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Fmt.str "unexpected character %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage after the JSON value";
  v

let of_string s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error (msg, pos) ->
    Error (Fmt.str "at offset %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let type_name = function
  | Null -> "null"
  | Bool _ -> "bool"
  | Int _ -> "int"
  | Float _ -> "float"
  | Str _ -> "string"
  | List _ -> "array"
  | Obj _ -> "object"

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

let to_int = function
  | Int i -> Ok i
  | v -> Error (Fmt.str "expected an int, found %s" (type_name v))

let to_float = function
  | Float f -> Ok f
  | Int i -> Ok (float_of_int i)
  | v -> Error (Fmt.str "expected a number, found %s" (type_name v))

let to_str = function
  | Str s -> Ok s
  | v -> Error (Fmt.str "expected a string, found %s" (type_name v))

let to_bool = function
  | Bool b -> Ok b
  | v -> Error (Fmt.str "expected a bool, found %s" (type_name v))

let to_list = function
  | List items -> Ok items
  | v -> Error (Fmt.str "expected an array, found %s" (type_name v))
