type op = Connect | Read | Write
type mode = Reset | Timeout | Stall of float | Short of int | Corrupt

include Amos_service.Fault_plan.Make (struct
  type nonrec op = op
  type nonrec mode = mode
end)

let default = real ()

let chaos ?(stall_s = 0.05) ~rate ~seed () =
  chaos ~rate ~seed [| Short 3; Stall stall_s; Reset; Corrupt; Timeout |]

let reset_exn what = Unix.Unix_error (Unix.ECONNRESET, what, "")
let timeout_exn what = Unix.Unix_error (Unix.EAGAIN, what, "")

(* flip a mid bit of every byte: cheap, never produces the original,
   and reliably breaks both frame headers and JSON payloads *)
let corrupt_bytes buf off len =
  for i = off to off + len - 1 do
    Bytes.set buf i (Char.chr (Char.code (Bytes.get buf i) lxor 0x15))
  done

let read t fd buf off len =
  match trip t Read with
  | None -> Unix.read fd buf off len
  | Some Reset -> raise (reset_exn "read")
  | Some Timeout -> raise (timeout_exn "read")
  | Some (Stall dt) ->
      Unix.sleepf (Float.max 0. dt);
      Unix.read fd buf off len
  | Some (Short n) -> Unix.read fd buf off (max 1 (min len (max 1 n)))
  | Some Corrupt ->
      let n = Unix.read fd buf off len in
      corrupt_bytes buf off n;
      n

let write t fd buf off len =
  match trip t Write with
  | None -> Unix.write fd buf off len
  | Some Reset -> raise (reset_exn "write")
  | Some Timeout -> raise (timeout_exn "write")
  | Some (Stall dt) ->
      Unix.sleepf (Float.max 0. dt);
      Unix.write fd buf off len
  | Some (Short n) -> Unix.write fd buf off (max 1 (min len (max 1 n)))
  | Some Corrupt ->
      (* damage a copy: the caller's buffer is not ours to scribble on *)
      let dup = Bytes.sub buf off len in
      corrupt_bytes dup 0 len;
      Unix.write fd dup 0 len

let connect t f =
  match trip t Connect with
  | None -> f ()
  | Some (Reset | Corrupt | Short _) ->
      raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", ""))
  | Some Timeout -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
  | Some (Stall dt) ->
      Unix.sleepf (Float.max 0. dt);
      f ()

(* --- environment ---------------------------------------------------- *)

let bad_spec what s =
  invalid_arg (Printf.sprintf "Net_io.of_env: bad %s %S" what s)

let parse_chaos s =
  let rate = ref None and seed = ref None and stall = ref 0.05 in
  String.split_on_char ',' s
  |> List.iter (fun kv ->
         match String.index_opt kv '=' with
         | None -> bad_spec "AMOS_NET_CHAOS entry" kv
         | Some i -> (
             let k = String.trim (String.sub kv 0 i) in
             let v =
               String.trim (String.sub kv (i + 1) (String.length kv - i - 1))
             in
             match (k, float_of_string_opt v) with
             | "rate", Some f -> rate := Some f
             | "seed", Some f -> seed := Some (int_of_float f)
             | "stall", Some f -> stall := f
             | _ -> bad_spec "AMOS_NET_CHAOS entry" kv));
  match (!rate, !seed) with
  | Some rate, Some seed -> chaos ~stall_s:!stall ~rate ~seed ()
  | _ -> bad_spec "AMOS_NET_CHAOS (need rate= and seed=)" s

let parse_faults s =
  let op_of = function
    | "connect" -> Connect
    | "read" -> Read
    | "write" -> Write
    | o -> bad_spec "op" o
  in
  let mode_of = function
    | [ "reset" ] -> Reset
    | [ "timeout" ] -> Timeout
    | [ "corrupt" ] -> Corrupt
    | [ "short"; n ] -> Short (int_of_string n)
    | [ "stall"; dt ] -> Stall (float_of_string dt)
    | m -> bad_spec "mode" (String.concat ":" m)
  in
  let fault_of item =
    match String.split_on_char ':' (String.trim item) with
    | op :: after :: mode ->
        { op = op_of op; after = int_of_string after; mode = mode_of mode }
    | _ -> bad_spec "AMOS_NET_FAULTS entry" item
  in
  match
    String.split_on_char ';' s
    |> List.filter (fun i -> String.trim i <> "")
    |> List.map (fun item ->
           match fault_of item with
           | f -> f
           | exception (Failure _ | Invalid_argument _) ->
               bad_spec "AMOS_NET_FAULTS entry" item)
  with
  | [] -> bad_spec "AMOS_NET_FAULTS (empty)" s
  | faults -> faulty faults

let of_env () =
  match (Sys.getenv_opt "AMOS_NET_CHAOS", Sys.getenv_opt "AMOS_NET_FAULTS") with
  | Some c, _ when String.trim c <> "" -> parse_chaos c
  | _, Some f when String.trim f <> "" -> parse_faults f
  | _ -> default
