type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- writer -------------------------------------------------------- *)

let hex_digit n = "0123456789abcdef".[n]

let add_escape buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf (hex_digit (Char.code c lsr 4));
      Buffer.add_char buf (hex_digit (Char.code c land 0xF))

(* each run of bytes that need no escape is copied in one piece *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec go run i =
    if i = n then Buffer.add_substring buf s run (i - run)
    else
      match s.[i] with
      | ('"' | '\\' | '\000' .. '\031') as c ->
          Buffer.add_substring buf s run (i - run);
          add_escape buf c;
          go (i + 1) (i + 1)
      | _ -> go run (i + 1)
  in
  go 0 0;
  Buffer.add_char buf '"'

(* shortest decimal rendering that round-trips, with a forced '.' or
   exponent so the reader keeps Float and Int distinct *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s =
      let short = Printf.sprintf "%.15g" f in
      if float_of_string short = f then short else Printf.sprintf "%.17g" f
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* --- reader -------------------------------------------------------- *)

exception Parse_error of int * string

(* every peek tests [pos < len] itself: no [char option] per byte *)
type state = { src : string; len : int; mutable pos : int }

let fail st msg = raise (Parse_error (st.pos, msg))
let advance st = st.pos <- st.pos + 1
let next_is st c = st.pos < st.len && st.src.[st.pos] = c

let rec skip_ws st =
  if st.pos < st.len then
    match st.src.[st.pos] with
    | ' ' | '\t' | '\n' | '\r' ->
        advance st;
        skip_ws st
    | _ -> ()

let expect st c =
  if next_is st c then advance st else fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  let n = String.length word in
  let rec matches i =
    i = n || (st.src.[st.pos + i] = word.[i] && matches (i + 1))
  in
  if st.pos + n <= st.len && matches 0 then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st ("expected " ^ word)

let utf8_of_code buf c =
  if c < 0x80 then Buffer.add_char buf (Char.chr c)
  else if c < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (c lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (c lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (c land 0x3F)))
  end

let parse_hex4 st =
  let value = ref 0 in
  for _ = 1 to 4 do
    let d =
      if st.pos >= st.len then fail st "bad \\u escape"
      else
        match st.src.[st.pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail st "bad \\u escape"
    in
    advance st;
    value := (!value * 16) + d
  done;
  !value

(* the escape after a backslash at [st.pos - 1]; leaves [pos] past it *)
let parse_escape st buf =
  if st.pos >= st.len then fail st "bad escape";
  (match st.src.[st.pos] with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' ->
      advance st;
      utf8_of_code buf (parse_hex4 st);
      (* parse_hex4 leaves pos past the escape; undo the advance below *)
      st.pos <- st.pos - 1
  | _ -> fail st "bad escape");
  advance st

(* a string with no escape is one [String.sub]; the first escape moves
   the rest into a buffer, still copying unescaped runs whole *)
let parse_string st =
  expect st '"';
  let start = st.pos in
  let rec slow buf run =
    if st.pos >= st.len then fail st "unterminated string"
    else
      match st.src.[st.pos] with
      | '"' ->
          Buffer.add_substring buf st.src run (st.pos - run);
          advance st;
          Buffer.contents buf
      | '\\' ->
          Buffer.add_substring buf st.src run (st.pos - run);
          advance st;
          parse_escape st buf;
          slow buf st.pos
      | '\000' .. '\031' -> fail st "raw control character"
      | _ ->
          advance st;
          slow buf run
  in
  let rec fast () =
    if st.pos >= st.len then fail st "unterminated string"
    else
      match st.src.[st.pos] with
      | '"' ->
          advance st;
          String.sub st.src start (st.pos - 1 - start)
      | '\\' -> slow (Buffer.create 16) start
      | '\000' .. '\031' -> fail st "raw control character"
      | _ ->
          advance st;
          fast ()
  in
  fast ()

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume_digits () =
    let first = st.pos in
    while
      st.pos < st.len && st.src.[st.pos] >= '0' && st.src.[st.pos] <= '9'
    do
      advance st
    done;
    if st.pos = first then fail st "expected digit"
  in
  if next_is st '-' then advance st;
  consume_digits ();
  if next_is st '.' then begin
    is_float := true;
    advance st;
    consume_digits ()
  end;
  if next_is st 'e' || next_is st 'E' then begin
    is_float := true;
    advance st;
    if next_is st '+' || next_is st '-' then advance st;
    consume_digits ()
  end;
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  if st.pos >= st.len then fail st "unexpected end of input";
  match st.src.[st.pos] with
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' -> String (parse_string st)
  | '-' | '0' .. '9' -> parse_number st
  | '[' ->
      advance st;
      skip_ws st;
      if next_is st ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [ parse_value st ] in
        let rec loop () =
          skip_ws st;
          if next_is st ',' then begin
            advance st;
            items := parse_value st :: !items;
            loop ()
          end
          else if next_is st ']' then advance st
          else fail st "expected ',' or ']'"
        in
        loop ();
        List (List.rev !items)
      end
  | '{' ->
      advance st;
      skip_ws st;
      if next_is st '}' then begin
        advance st;
        Obj []
      end
      else begin
        let member () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          (k, v)
        in
        let items = ref [ member () ] in
        let rec loop () =
          skip_ws st;
          if next_is st ',' then begin
            advance st;
            items := member () :: !items;
            loop ()
          end
          else if next_is st '}' then advance st
          else fail st "expected ',' or '}'"
        in
        loop ();
        Obj (List.rev !items)
      end
  | c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { src = s; len = String.length s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> st.len then fail st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "JSON error at byte %d: %s" pos msg)
