(* Persistent "known-bad" markers: fingerprints whose tuning degraded to
   the scalar fallback.  One append-only text file next to the plan
   cache, one line per marker:

     bad <fingerprint> <epoch-seconds> <reason...>

   Appends go through [Fs_io.append_line] (single O_APPEND write), so
   concurrent compilers interleave at line granularity exactly like the
   cache journal; a torn trailing line is simply ignored on load.  A
   fingerprint marked more than once keeps the newest reason. *)

let file_name = "known_bad.txt"
let path ~dir = Filename.concat dir file_name

type t = {
  fs : Fs_io.t;
  clock : Clock.t;
  dir : string;
  entries : (string, float * string) Hashtbl.t;
}

let parse_line line =
  match String.split_on_char ' ' line with
  | "bad" :: fp :: at :: reason when fp <> "" ->
      let at = match float_of_string_opt at with Some t -> t | None -> 0. in
      Some (fp, at, String.concat " " reason)
  | _ -> None

let read_entries fs ~dir =
  let p = path ~dir in
  if not (Fs_io.exists fs p) then []
  else
    match Fs_io.read_file fs p with
    | exception Unix.Unix_error _ -> []
    | text -> List.filter_map parse_line (fst (Fs_io.complete_lines text))

let load ?fs ?clock ~dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let clock = match clock with Some c -> c | None -> Clock.real () in
  let entries = Hashtbl.create 8 in
  List.iter
    (fun (fp, at, reason) -> Hashtbl.replace entries fp (at, reason))
    (read_entries fs ~dir);
  { fs; clock; dir; entries }

let mem t fp = Hashtbl.mem t.entries fp

let reason t fp =
  Option.map snd (Hashtbl.find_opt t.entries fp)

let size t = Hashtbl.length t.entries

(* spaces and newlines would corrupt the line format; flatten them *)
let sanitize reason =
  String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) reason

let mark t ~fingerprint ~reason =
  if not (mem t fingerprint) then begin
    let at = Clock.now t.clock in
    Hashtbl.replace t.entries fingerprint (at, reason);
    Fs_io.append_line t.fs (path ~dir:t.dir)
      (Printf.sprintf "bad %s %.3f %s" fingerprint at (sanitize reason))
  end

let entries t =
  List.sort compare
    (Hashtbl.fold
       (fun fp (at, reason) acc -> (fp, at, reason) :: acc)
       t.entries [])

let list ?fs ~dir () =
  let t = load ?fs ~dir () in
  entries t

let clear ?fs ~dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let t = load ~fs ~dir () in
  let n = size t in
  let p = path ~dir in
  if Fs_io.exists fs p then Fs_io.remove fs p;
  n
