type op = Append | Write | Rename | Remove | Read | Lock

type mode =
  | Fail of Unix.error
  | Crash_before
  | Crash_after
  | Torn of int

include Fault_plan.Make (struct
  type nonrec op = op
  type nonrec mode = mode
end)

exception Crashed of string

let crashed what path = raise (Crashed (what ^ " " ^ path))
let failed e call path = raise (Unix.Unix_error (e, call, path))

(* --- non-faulting probes ------------------------------------------- *)

let exists _t path = Sys.file_exists path

let file_size _t path =
  match Unix.stat path with
  | { Unix.st_size; _ } -> st_size
  | exception Unix.Unix_error _ -> 0

let mtime _t path =
  match Unix.stat path with
  | { Unix.st_mtime; _ } -> st_mtime
  | exception Unix.Unix_error _ -> 0.

(* create first, climb on ENOENT: no existence check a concurrent
   creator can race, and EEXIST from one is success *)
let rec mkdir_p t path =
  let mkdir () =
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  in
  try mkdir ()
  with Unix.Unix_error (Unix.ENOENT, _, _) when Filename.dirname path <> path ->
    mkdir_p t (Filename.dirname path);
    mkdir ()

let list_dir _t path =
  match Sys.readdir path with
  | names -> Array.to_list names
  | exception Sys_error _ -> []

(* --- faultable operations ------------------------------------------ *)

(* not [Fun.protect]: it would wrap a failing close in [Finally_raised],
   which no handler of OS errors catches *)
let with_fd path flags f =
  let fd = Unix.openfile path flags 0o644 in
  match f fd with
  | v ->
      Unix.close fd;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Printexc.raise_with_backtrace e bt

let write_payload ~what t opk flags path payload =
  match trip t opk with
  | Some (Fail e) -> failed e "write" path
  | Some Crash_before -> crashed what path
  | (None | Some Crash_after | Some (Torn _)) as mode ->
      let len =
        match mode with
        | Some (Torn n) -> max 0 (min n (String.length payload))
        | _ -> String.length payload
      in
      (* [Unix.write] repeats until the whole payload is written or the
         OS reports an error *)
      with_fd path flags (fun fd ->
          ignore (Unix.write_substring fd payload 0 len));
      (match mode with
      | Some (Torn _) | Some Crash_after -> crashed what path
      | _ -> ())

let write_file t path content =
  write_payload ~what:"write" t Write
    [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
    path content

let append_line t path line =
  write_payload ~what:"append" t Append
    [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ]
    path (line ^ "\n")

(* [len] bytes from [fd]'s position into one buffer, fewer when the
   file ends first: no channel buffer and no growing copies on the
   disk-tier lookup path *)
let read_upto fd len =
  let buf = Bytes.create len in
  let rec fill off =
    if off = len then off
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> off
      | n -> fill (off + n)
  in
  let n = fill 0 in
  if n = len then Bytes.unsafe_to_string buf else Bytes.sub_string buf 0 n

let faulted_read t path read =
  match trip t Read with
  | Some (Fail e) -> failed e "read" path
  | Some (Crash_before | Crash_after | Torn _) -> crashed "read" path
  | None -> with_fd path [ Unix.O_RDONLY ] read

(* a file that grew mid-read yields the size [fstat] saw *)
let read_file t path =
  faulted_read t path (fun fd -> read_upto fd (Unix.fstat fd).Unix.st_size)

let read_at t path ~off ~len =
  faulted_read t path (fun fd ->
      ignore (Unix.lseek fd off Unix.SEEK_SET);
      read_upto fd len)

let rename t src dst =
  match trip t Rename with
  | Some (Fail e) -> failed e "rename" src
  | Some (Crash_before | Torn _) -> crashed "rename" src
  | Some Crash_after ->
      Unix.rename src dst;
      crashed "rename" src
  | None -> Unix.rename src dst

let remove t path =
  match trip t Remove with
  | Some (Fail e) -> failed e "unlink" path
  | Some (Crash_before | Torn _) -> crashed "remove" path
  | Some Crash_after ->
      Unix.unlink path;
      crashed "remove" path
  | None -> Unix.unlink path

let with_lock t path f =
  match trip t Lock with
  | Some (Fail e) -> failed e "lockf" path
  | Some (Crash_before | Crash_after | Torn _) -> crashed "lock" path
  | None ->
      (* closing the descriptor releases the lock *)
      with_fd path [ Unix.O_RDWR; Unix.O_CREAT ] (fun fd ->
          Unix.lockf fd Unix.F_LOCK 0;
          f ())

(* --- append-only logs ---------------------------------------------- *)

(* the element after the last newline is "" for a well-formed log and
   the torn fragment otherwise *)
let complete_lines text =
  let rec go acc = function
    | [] | [ "" ] -> (List.rev acc, false)
    | [ _fragment ] -> (List.rev acc, true)
    | "" :: rest -> go acc rest
    | line :: rest -> go (line :: acc) rest
  in
  go [] (String.split_on_char '\n' text)

(* --- unique temp names --------------------------------------------- *)

let tmp_counter = Atomic.make 0

let fresh_tmp base =
  Printf.sprintf "%s.tmp-%d-%d" base (Unix.getpid ())
    (Atomic.fetch_and_add tmp_counter 1)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m > 0 && go 0

let is_tmp name =
  Filename.check_suffix name ".tmp" || contains_sub name ".tmp-"
