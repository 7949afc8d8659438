(* Paths under the system temp directory for tests.  Every path handed
   out is removed when the test binary exits, with whatever the test or
   the code under test put there, so a run leaves the temp directory
   with the entries it found. *)

(* [lstat], not [Sys.is_directory]: a symlink is removed, never
   followed out of the tree *)
let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let handed_out = ref []
let mu = Mutex.create ()

let () =
  at_exit (fun () ->
      List.iter
        (fun p -> try rm_rf p with Unix.Unix_error _ | Sys_error _ -> ())
        !handed_out)

(* a fresh path, not created *)
let name ?(suffix = "") prefix =
  let p =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d%s" prefix (Unix.getpid ()) (Random.bits ())
         suffix)
  in
  Mutex.protect mu (fun () -> handed_out := p :: !handed_out);
  p

(* a fresh, empty directory *)
let dir prefix =
  let d = name prefix in
  Sys.mkdir d 0o755;
  d
