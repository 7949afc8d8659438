module Fs_io = Amos_service.Fs_io
module Clock = Amos_service.Clock

let log_src = Logs.Src.create "amos.learn" ~doc:"AMOS learned cost model"

module Log = (val Logs.src_log log_src : Logs.LOG)

let file_name = "observations.log"
let lock_name = "observations.lock"
let version = 1
let version_line = Printf.sprintf "amos-obs %d" version

exception Unsupported_obs_log of { path : string; version : string }

let () =
  Printexc.register_printer (function
    | Unsupported_obs_log { path; version = v } ->
        Some
          (Printf.sprintf
             "Obs_log.Unsupported_obs_log { path = %S; version = %S } (this \
              build speaks version %d)"
             path v version)
    | _ -> None)

type record = {
  fingerprint : string;
  accel : string;
  at : float;
  predicted : float;
  measured : float;
  features : float array;
}

type t = { fs : Fs_io.t; clock : Clock.t; path : string }

let path_in dir = Filename.concat dir file_name

let create ?fs ?clock ~dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let clock = match clock with Some c -> c | None -> Clock.real () in
  Fs_io.mkdir_p fs dir;
  let path = path_in dir in
  (* stamp exactly once: concurrent creators race on existence, the lock
     serializes them *)
  Fs_io.with_lock fs (Filename.concat dir lock_name) (fun () ->
      if Fs_io.file_size fs path = 0 then Fs_io.append_line fs path version_line);
  { fs; clock; path }

(* accelerator names are single tokens today; keep the line format safe
   if one ever grows whitespace *)
let sanitize s =
  String.map (fun c -> if c = ' ' || c = '\t' || c = '\n' then '_' else c) s

let render ~fingerprint ~accel ~at ~predicted ~measured ~features =
  Printf.sprintf "obs %s %s %h %h %h %s" (sanitize fingerprint)
    (sanitize accel) at predicted measured
    (String.concat " "
       (List.map (Printf.sprintf "%h") (Array.to_list features)))

let append t ~fingerprint ~accel ~predicted ~measured ~features =
  Fs_io.append_line t.fs t.path
    (render ~fingerprint ~accel ~at:(Clock.now t.clock) ~predicted ~measured
       ~features)

let observer t ~config ~fingerprint ~accel (ob : Amos.Explore.observation) =
  match
    append t ~fingerprint ~accel ~predicted:ob.Amos.Explore.ob_predicted
      ~measured:ob.Amos.Explore.ob_measured
      ~features:(Features.of_summary config ob.Amos.Explore.ob_summary)
  with
  | () -> ()
  | exception e ->
      (* the log is a side channel: losing an observation must never
         lose a tune *)
      Log.warn (fun m ->
          m "observation append failed: %s" (Printexc.to_string e))

let parse_line line =
  match String.split_on_char ' ' line with
  | "obs" :: fingerprint :: accel :: at :: predicted :: measured :: feats -> (
      try
        Some
          {
            fingerprint;
            accel;
            at = float_of_string at;
            predicted = float_of_string predicted;
            measured = float_of_string measured;
            features =
              Array.of_list
                (List.map float_of_string
                   (List.filter (fun s -> s <> "") feats));
          }
      with Failure _ -> None)
  | _ -> None

(* The log's complete lines without the version stamp, which must name
   this version.  Shared by [read] and [scan]. *)
let complete_lines ~path text =
  let lines, torn = Fs_io.complete_lines text in
  (match lines with
  | first :: _ when first = version_line -> ()
  | first :: _
    when String.length first >= 8 && String.sub first 0 8 = "amos-obs" ->
      raise
        (Unsupported_obs_log
           {
             path;
             version =
               String.trim (String.sub first 8 (String.length first - 8));
           })
  | _ -> ());
  let body =
    match lines with first :: rest when first = version_line -> rest | l -> l
  in
  (body, torn, String.length text)

let read ?fs ~dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let path = path_in dir in
  if not (Fs_io.exists fs path) then []
  else
    let body, _, _ = complete_lines ~path (Fs_io.read_file fs path) in
    List.filter_map parse_line body

type scan = { records : int; skipped : int; torn : bool; bytes : int }

let scan ?fs ~dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let path = path_in dir in
  if not (Fs_io.exists fs path) then
    { records = 0; skipped = 0; torn = false; bytes = 0 }
  else
    let body, torn, bytes = complete_lines ~path (Fs_io.read_file fs path) in
    let records, skipped =
      List.fold_left
        (fun (r, s) line ->
          match parse_line line with Some _ -> (r + 1, s) | None -> (r, s + 1))
        (0, 0) body
    in
    { records; skipped; torn; bytes }

let heal ?fs ~dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let path = path_in dir in
  if not (Fs_io.exists fs path) then false
  else
    let _, torn = Fs_io.complete_lines (Fs_io.read_file fs path) in
    if torn then begin
      (* terminate the fragment: it parses as a skipped line from now
         on, and later appends land on a fresh line *)
      Fs_io.append_line fs path "";
      true
    end
    else false
