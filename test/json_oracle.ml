(* [Json] as it stood before the allocation-free scanner, kept verbatim
   as the oracle (only its value type is re-exported from [Json], so
   results compare directly): [props.json] asserts that the production
   writer renders every value to the same bytes, and that the reader
   returns the same value — or the same error at the same byte offset —
   for every input. *)

type t = Amos_server.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- writer -------------------------------------------------------- *)

let escape_string buf s =
  Buffer.add_char buf '"';
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

type state = { src : string; mutable pos : int }

let fail st msg = raise (Parse_error (st.pos, msg))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail st (Printf.sprintf "expected %C" c)

let literal st word value =
  if
    st.pos + String.length word <= String.length st.src
    && String.sub st.src st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
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
      match peek st with
      | Some ('0' .. '9' as c) -> Char.code c - Char.code '0'
      | Some ('a' .. 'f' as c) -> Char.code c - Char.code 'a' + 10
      | Some ('A' .. 'F' as c) -> Char.code c - Char.code 'A' + 10
      | _ -> fail st "bad \\u escape"
    in
    advance st;
    value := (!value * 16) + d
  done;
  !value

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        (match peek st with
        | Some '"' -> Buffer.add_char buf '"'
        | Some '\\' -> Buffer.add_char buf '\\'
        | Some '/' -> Buffer.add_char buf '/'
        | Some 'b' -> Buffer.add_char buf '\b'
        | Some 'f' -> Buffer.add_char buf '\012'
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some 'r' -> Buffer.add_char buf '\r'
        | Some 't' -> Buffer.add_char buf '\t'
        | Some 'u' ->
            advance st;
            utf8_of_code buf (parse_hex4 st);
            (* parse_hex4 leaves pos past the escape; undo the generic
               advance below *)
            st.pos <- st.pos - 1
        | _ -> fail st "bad escape");
        advance st;
        loop ())
    | Some c when Char.code c < 0x20 -> fail st "raw control character"
    | Some c ->
        Buffer.add_char buf c;
        advance st;
        loop ()
  in
  loop ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_float = ref false in
  let consume_digits () =
    let got = ref false in
    let rec go () =
      match peek st with
      | Some '0' .. '9' ->
          got := true;
          advance st;
          go ()
      | _ -> ()
    in
    go ();
    if not !got then fail st "expected digit"
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  consume_digits ();
  (match peek st with
  | Some '.' ->
      is_float := true;
      advance st;
      consume_digits ()
  | _ -> ());
  (match peek st with
  | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      consume_digits ()
  | _ -> ());
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some 'n' -> literal st "null" Null
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some '"' -> String (parse_string st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin
        advance st;
        List []
      end
      else begin
        let items = ref [ parse_value st ] in
        let rec loop () =
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              items := parse_value st :: !items;
              loop ()
          | Some ']' -> advance st
          | _ -> fail st "expected ',' or ']'"
        in
        loop ();
        List (List.rev !items)
      end
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin
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
          match peek st with
          | Some ',' ->
              advance st;
              items := member () :: !items;
              loop ()
          | Some '}' -> advance st
          | _ -> fail st "expected ',' or '}'"
        in
        loop ();
        Obj (List.rev !items)
      end
  | Some c -> fail st (Printf.sprintf "unexpected character %C" c)

let of_string s =
  let st = { src = s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then fail st "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "JSON error at byte %d: %s" pos msg)
