(* Timing, order statistics, result checks and file-system helpers shared
   by the workloads. *)

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Timed sections start on a settled heap and file system: otherwise
   the major collection owed for an earlier phase's allocation
   (gigabytes for a compile) and the write-back of the files it wrote
   (thousands of plan files) are paid inside whatever is timed next. *)
let settle () =
  Gc.full_major ();
  if Sys.command "sync" <> 0 then failwith "sync failed"

(* --- order statistics ----------------------------------------------- *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* nearest-rank percentile, [p] in [0, 100] *)
let percentile p l =
  match l with
  | [] -> nan
  | _ ->
      let a = sorted_array l in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median l =
  match l with
  | [] -> nan
  | _ ->
      let a = sorted_array l in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean l =
  match l with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. l
        /. float_of_int (List.length l))

let sum l = List.fold_left ( +. ) 0. l

(* --- correctness accounting ----------------------------------------- *)

(* Every result the benchmark receives (a compiled stage, a reply, a
   reload, a verification) is one attempt; a failed check counts against
   [ok_ratio] and fails the run with its reason on stderr. *)
let attempted = ref 0
let failed = ref 0
let reasons : string list ref = ref []

let attempt ok reason =
  incr attempted;
  if not ok then begin
    incr failed;
    if List.length !reasons < 20 then reasons := Lazy.force reason :: !reasons
  end

let ok_ratio () =
  if !attempted = 0 then 0.
  else float_of_int (!attempted - !failed) /. float_of_int !attempted

(* --- processes and files -------------------------------------------- *)

(* peak resident set of a live process, from /proc *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  In_channel.with_open_text path (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf
              (String.sub line 6 (String.length line - 6))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* All files a run writes live under [out_dir] in the working directory;
   each run gets its own directory below it, removed on every exit. *)
let out_dir = "_perfbench"

let run_dir =
  lazy
    (let d = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
     rm_rf d;
     mkdir_p d;
     d)

(* exit hooks that must run while the run directory still exists (e.g.
   reaping daemons serving from it) *)
let hooks : (unit -> unit) list ref = ref []
let before_cleanup f = hooks := f :: !hooks

let () =
  at_exit (fun () ->
      List.iter (fun f -> try f () with _ -> ()) !hooks;
      if Lazy.is_val run_dir then
        try rm_rf (Lazy.force run_dir) with Unix.Unix_error _ | Sys_error _ -> ())

let fresh_counter = ref 0

(* a new, empty directory (or path, for sockets) inside the run directory *)
let fresh_path prefix =
  incr fresh_counter;
  Filename.concat (Lazy.force run_dir) (Printf.sprintf "%s%d" prefix !fresh_counter)

let fresh_dir prefix =
  let d = fresh_path prefix in
  mkdir_p d;
  d
