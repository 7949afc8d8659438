(* The real daemon, [amos_cli serve], in its own process: spawned on a
   fresh socket, driven over one connection, and always reaped — on a
   clean stop, a failed check, an exception or a signal. *)

module Client = Amos_server.Client
module Protocol = Amos_server.Protocol

let cli = Filename.concat "_build" (Filename.concat "default" "bin/amos_cli.exe")

type t = {
  pid : int;
  dir : string;  (** the daemon's cache directory *)
  conn : Client.t;
}

let live : int list ref = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = Util.before_cleanup (fun () -> List.iter reap !live)

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let spawn ?hot_capacity ~dir () =
  if not (Sys.file_exists cli) then failwith (cli ^ " is not built");
  let socket = Util.fresh_path "d" ^ ".sock" in
  let args =
    [ cli; "serve"; "--socket"; socket; "--cache-dir"; dir; "--workers"; "1";
      "--jobs"; "1" ]
    @ match hot_capacity with
      | Some n -> [ "--hot-capacity"; string_of_int n ]
      | None -> []
  in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close null_in;
        Unix.close null_out)
      (fun () ->
        Unix.create_process cli (Array.of_list args) null_in null_out
          Unix.stderr)
  in
  live := pid :: !live;
  (* poll for the listening socket in small steps: a fixed retry period
     would round every set-up time up to it *)
  let deadline = Util.now () +. 20. in
  let rec connect () =
    if exited pid then begin
      live := List.filter (( <> ) pid) !live;
      failwith "daemon exited during start-up"
    end
    else if Util.now () > deadline then failwith "daemon did not start"
    else
      match
        if Sys.file_exists socket then Some (Client.connect ~timeout_s:120. socket)
        else None
      with
      | Some conn -> conn
      | None | (exception Unix.Unix_error _) ->
          Unix.sleepf 0.002;
          connect ()
  in
  { pid; dir; conn = connect () }

let request d req =
  match Client.request d.conn req with
  | Ok r -> r
  | Error msg -> failwith ("daemon request failed: " ^ msg)

let stats d =
  match request d Protocol.Stats with
  | Protocol.Stats_r s -> s
  | _ -> failwith "Stats: unexpected reply"

let peak_rss_mb d = Util.vm_hwm_mb (string_of_int d.pid)

(* graceful shutdown (drain, then release the socket); killed if it does
   not exit promptly *)
let stop d =
  (try ignore (Client.request d.conn Protocol.Shutdown) with _ -> ());
  Client.close d.conn;
  let deadline = Util.now () +. 10. in
  let rec wait () =
    if exited d.pid then live := List.filter (( <> ) d.pid) !live
    else if Util.now () > deadline then reap d.pid
    else begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ()
