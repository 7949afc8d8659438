type t = {
  fd : Unix.file_descr;
  net : Net_io.t;
  reader : Protocol.reader;
  mutable closed : bool;
  mutable poisoned : string option;
}

exception Denied of string

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

(* TCP requires the hello exchange before the first request; a typed
   denial (bad token, version skew) surfaces as [Denied], transport
   trouble and garbage replies as [Failure] *)
let do_handshake t ~token ~peer =
  Protocol.write_frame ~net:t.net t.fd
    (Protocol.encode_hello
       { Protocol.hello_version = Protocol.version; token; peer });
  match Protocol.read_frame t.reader with
  | Ok payload -> (
      match Protocol.decode_hello_reply payload with
      | Ok Protocol.Hello_ok -> ()
      | Ok (Protocol.Hello_denied reason) -> raise (Denied reason)
      | Error msg -> failwith ("bad hello reply: " ^ msg))
  | Error `Eof -> failwith "server closed the connection during handshake"
  | Error (`Bad msg) -> failwith ("bad hello reply frame: " ^ msg)

let connect_endpoint ?(net = Net_io.default) ?(timeout_s = 30.)
    ?(attempts = 1) ?(token = "") ?(peer = false) endpoint =
  let rec go n =
    match Transport.connect ~net ~timeout_s endpoint with
    | fd -> (
        (* both directions carry the deadline: without SO_SNDTIMEO a
           peer that stops draining its receive buffer would park
           [write_frame] forever, defeating the timeout entirely *)
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
         with Unix.Unix_error _ -> ());
        let t =
          {
            fd;
            net;
            reader = Protocol.reader ~net fd;
            closed = false;
            poisoned = None;
          }
        in
        match endpoint with
        | Transport.Unix_path _ -> t
        | Transport.Tcp _ -> (
            match do_handshake t ~token ~peer with
            | () -> t
            | exception e ->
                close t;
                raise e))
    | exception (Unix.Unix_error _ as e) ->
        if n <= 1 then raise e
        else begin
          ignore (Unix.select [] [] [] 0.1);
          go (n - 1)
        end
  in
  go (max 1 attempts)

let connect ?timeout_s ?attempts socket_path =
  connect_endpoint ?timeout_s ?attempts (Transport.Unix_path socket_path)

let with_endpoint ?net ?timeout_s ?attempts ?token ?peer endpoint f =
  let t = connect_endpoint ?net ?timeout_s ?attempts ?token ?peer endpoint in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

let with_conn ?timeout_s ?attempts socket_path f =
  with_endpoint ?timeout_s ?attempts (Transport.Unix_path socket_path) f

(* a frame stream that desynced (timeout, reset, bad frame) can never
   be trusted again: the next reply on it could be the late answer to
   the previous question.  Poison the connection so every later request
   gets a typed refusal instead of garbage. *)
let poison t reason =
  t.poisoned <- Some reason;
  Error ("connection poisoned: " ^ reason)

let request ?deadline_ms t req =
  if t.closed then Error "connection closed"
  else
    match t.poisoned with
    | Some reason -> Error ("connection poisoned: " ^ reason)
    | None -> (
        match
          Protocol.write_frame ~net:t.net t.fd
            (Protocol.encode_request ?deadline_ms req);
          Protocol.read_frame t.reader
        with
        | Ok payload -> Protocol.decode_response payload
        | Error `Eof -> poison t "server closed the connection"
        | Error (`Bad msg) -> poison t ("bad response frame: " ^ msg)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            poison t "request timed out"
        | exception Unix.Unix_error (e, _, _) ->
            poison t ("transport error: " ^ Unix.error_message e))

(* Streaming is the same exchange with interleaved [Progress_r] frames
   before the final reply; the final frame is whatever a non-streaming
   request would have returned (plus [Cancelled_r]).  The same poison
   discipline applies: any desync mid-stream condemns the connection. *)
let request_stream ?deadline_ms ?request_id ~on_progress t req =
  if t.closed then Error "connection closed"
  else
    match t.poisoned with
    | Some reason -> Error ("connection poisoned: " ^ reason)
    | None -> (
        let rec drain () =
          match Protocol.read_frame t.reader with
          | Ok payload -> (
              match Protocol.decode_response payload with
              | Ok (Protocol.Progress_r p) ->
                  on_progress p;
                  drain ()
              | r -> r)
          | Error `Eof -> poison t "server closed the connection"
          | Error (`Bad msg) -> poison t ("bad response frame: " ^ msg)
          | exception Unix.Unix_error (Unix.EINTR, _, _) ->
              (* a signal (e.g. Ctrl-C whose handler just sent a cancel)
                 interrupted the read: keep draining — the terminal frame
                 is still coming, and the reader still holds whatever part
                 of a frame it had, so the retry resumes that frame *)
              drain ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              poison t "request timed out"
          | exception Unix.Unix_error (e, _, _) ->
              poison t ("transport error: " ^ Unix.error_message e)
        in
        match
          Protocol.write_frame ~net:t.net t.fd
            (Protocol.encode_request ?deadline_ms ?request_id
               ~accept_stream:true req)
        with
        | () -> drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            poison t "request timed out"
        | exception Unix.Unix_error (e, _, _) ->
            poison t ("transport error: " ^ Unix.error_message e))

let cancel t ~request_id = request t (Protocol.Cancel { request_id })

let poisoned t = t.poisoned

let request_retry ?(attempts = 5) ?deadline_ms t req =
  let rec go n =
    match request ?deadline_ms t req with
    | Ok (Protocol.Busy_r { retry_after_s }) as r ->
        if n <= 1 then r
        else begin
          ignore (Unix.select [] [] [] (Float.max 0.01 retry_after_s));
          go (n - 1)
        end
    | r -> r
  in
  go (max 1 attempts)
