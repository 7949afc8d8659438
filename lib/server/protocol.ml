module Fingerprint = Amos_service.Fingerprint

let version = 1
let max_frame_bytes = 4 * 1024 * 1024

type op_spec =
  | Layer of string
  | Kind of { kind : string; batch : int; index : int }
  | Dsl_text of string

type request =
  | Health
  | Stats
  | Shutdown
  | Lookup of { accel : string; op : op_spec; budget : Fingerprint.budget }
  | Tune of { accel : string; op : op_spec; budget : Fingerprint.budget }
  | Migrate_tune of {
      accel : string;
      op : op_spec;
      budget : Fingerprint.budget;
    }
  | Compile of {
      accel : string;
      network : string;
      batch : int;
      budget : Fingerprint.budget;
      jobs : int;
    }
  | Cancel of { request_id : int }

(* What a sender attached to the request beyond the request itself.
   Every field is optional on the wire and absent by default, so a
   pre-streaming decoder (which looks fields up by name) never sees
   them and a pre-streaming encoder produces byte-identical frames. *)
type envelope = {
  env_deadline_ms : int option;
  env_request_id : int option;
  env_accept_stream : bool;
}

let empty_envelope =
  { env_deadline_ms = None; env_request_id = None; env_accept_stream = false }

type hello = { hello_version : int; token : string; peer : bool }
type hello_reply = Hello_ok | Hello_denied of string

type plan_wire = Wire_scalar | Wire_spatial of string

type tune_reply = {
  fingerprint : string;
  plan : plan_wire;
  source : string;
  evaluations : int;
  tuning_seconds : float;
}

type server_stats = {
  uptime_s : float;
  requests : int;
  tunes : int;
  deduped : int;
  hot_hits : int;
  cache_hits : int;
  busy_rejections : int;
  in_flight : int;
  queue_load : int;
  hot_bytes : int;
  hot_tuning_seconds : float;
  cache_bytes : int;
  quarantine_retunes : int;
  forwarded : int;
  peer_hits : int;
  peer_fallbacks : int;
  budget_fallbacks : int;
  auth_rejections : int;
  deadline_rejections : int;
  cancels : int;
}

type compile_reply = {
  network : string;
  total_ops : int;
  mapped_ops : int;
  network_seconds : float;
  stages : int;
  comp_cache_hits : int;
  comp_tuned : int;
}

(* One streamed progress frame: the state of an in-flight exploration.
   Latencies are [None] until the search has anything to report (the
   wire cannot carry an IEEE infinity). *)
type progress_body = {
  pg_generation : int;
  pg_best_predicted : float option;
  pg_best_measured : float option;
  pg_evaluations : int;
}

type response =
  | Ok_r of string
  | Plan_r of tune_reply
  | Not_found_r
  | Stats_r of server_stats
  | Compiled_r of compile_reply
  | Busy_r of { retry_after_s : float }
  | Error_r of string
  | Progress_r of progress_body
  | Cancelled_r
  | Deadline_hint_r of { projected_wait_s : float }

(* --- JSON encoding ------------------------------------------------- *)

let ( let* ) = Result.bind

let json_of_budget (b : Fingerprint.budget) =
  Json.Obj
    [
      ("population", Json.Int b.Fingerprint.population);
      ("generations", Json.Int b.Fingerprint.generations);
      ("measure_top", Json.Int b.Fingerprint.measure_top);
      ("seed", Json.Int b.Fingerprint.seed);
    ]

let json_of_op = function
  | Layer label -> Json.Obj [ ("spec", Json.String "layer"); ("label", Json.String label) ]
  | Kind { kind; batch; index } ->
      Json.Obj
        [
          ("spec", Json.String "kind");
          ("kind", Json.String kind);
          ("batch", Json.Int batch);
          ("index", Json.Int index);
        ]
  | Dsl_text text ->
      Json.Obj [ ("spec", Json.String "dsl"); ("text", Json.String text) ]

let versioned ty fields =
  Json.Obj (("v", Json.Int version) :: ("type", Json.String ty) :: fields)

let json_of_request = function
  | Health -> versioned "health" []
  | Stats -> versioned "stats" []
  | Shutdown -> versioned "shutdown" []
  | Lookup { accel; op; budget } ->
      versioned "lookup"
        [
          ("accel", Json.String accel);
          ("op", json_of_op op);
          ("budget", json_of_budget budget);
        ]
  | Tune { accel; op; budget } ->
      versioned "tune"
        [
          ("accel", Json.String accel);
          ("op", json_of_op op);
          ("budget", json_of_budget budget);
        ]
  | Migrate_tune { accel; op; budget } ->
      versioned "migrate_tune"
        [
          ("accel", Json.String accel);
          ("op", json_of_op op);
          ("budget", json_of_budget budget);
        ]
  | Compile { accel; network; batch; budget; jobs } ->
      versioned "compile"
        [
          ("accel", Json.String accel);
          ("network", Json.String network);
          ("batch", Json.Int batch);
          ("budget", json_of_budget budget);
          ("jobs", Json.Int jobs);
        ]
  | Cancel { request_id } ->
      (* the wire key is "id", not "request_id": the latter is an
         envelope field (the id a streaming request registers under) and
         the flat frame object cannot carry both meanings at once *)
      versioned "cancel" [ ("id", Json.Int request_id) ]

let json_of_plan = function
  | Wire_scalar -> Json.Obj [ ("kind", Json.String "scalar") ]
  | Wire_spatial text ->
      Json.Obj [ ("kind", Json.String "spatial"); ("text", Json.String text) ]

let json_of_response = function
  | Ok_r info -> versioned "ok" [ ("info", Json.String info) ]
  | Plan_r r ->
      versioned "plan"
        [
          ("fingerprint", Json.String r.fingerprint);
          ("plan", json_of_plan r.plan);
          ("source", Json.String r.source);
          ("evaluations", Json.Int r.evaluations);
          ("tuning_seconds", Json.Float r.tuning_seconds);
        ]
  | Not_found_r -> versioned "not_found" []
  | Stats_r s ->
      versioned "stats"
        [
          ("uptime_s", Json.Float s.uptime_s);
          ("requests", Json.Int s.requests);
          ("tunes", Json.Int s.tunes);
          ("deduped", Json.Int s.deduped);
          ("hot_hits", Json.Int s.hot_hits);
          ("cache_hits", Json.Int s.cache_hits);
          ("busy_rejections", Json.Int s.busy_rejections);
          ("in_flight", Json.Int s.in_flight);
          ("queue_load", Json.Int s.queue_load);
          ("hot_bytes", Json.Int s.hot_bytes);
          ("hot_tuning_seconds", Json.Float s.hot_tuning_seconds);
          ("cache_bytes", Json.Int s.cache_bytes);
          ("quarantine_retunes", Json.Int s.quarantine_retunes);
          ("forwarded", Json.Int s.forwarded);
          ("peer_hits", Json.Int s.peer_hits);
          ("peer_fallbacks", Json.Int s.peer_fallbacks);
          ("budget_fallbacks", Json.Int s.budget_fallbacks);
          ("auth_rejections", Json.Int s.auth_rejections);
          ("deadline_rejections", Json.Int s.deadline_rejections);
          ("cancels", Json.Int s.cancels);
        ]
  | Compiled_r c ->
      versioned "compiled"
        [
          ("network", Json.String c.network);
          ("total_ops", Json.Int c.total_ops);
          ("mapped_ops", Json.Int c.mapped_ops);
          ("network_seconds", Json.Float c.network_seconds);
          ("stages", Json.Int c.stages);
          ("cache_hits", Json.Int c.comp_cache_hits);
          ("tuned", Json.Int c.comp_tuned);
        ]
  | Busy_r { retry_after_s } ->
      versioned "busy" [ ("retry_after_s", Json.Float retry_after_s) ]
  | Error_r msg -> versioned "error" [ ("message", Json.String msg) ]
  | Progress_r p ->
      (* unknown latencies are omitted, not encoded: the JSON writer
         would turn an infinity into [null] and the decoder would
         reject the frame *)
      let latency name v =
        match v with None -> [] | Some f -> [ (name, Json.Float f) ]
      in
      versioned "progress"
        ([ ("generation", Json.Int p.pg_generation) ]
        @ latency "best_predicted_s" p.pg_best_predicted
        @ latency "best_measured_s" p.pg_best_measured
        @ [ ("evaluations", Json.Int p.pg_evaluations) ])
  | Cancelled_r -> versioned "cancelled" []
  | Deadline_hint_r { projected_wait_s } ->
      versioned "deadline_hint"
        [ ("projected_wait_s", Json.Float projected_wait_s) ]

(* --- JSON decoding ------------------------------------------------- *)

let field name = function
  | Json.Obj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "missing field %S" name))
  | _ -> Error "expected a JSON object"

let as_string = function
  | Json.String s -> Ok s
  | _ -> Error "expected a string"

let as_int = function Json.Int i -> Ok i | _ -> Error "expected an integer"

let as_float = function
  | Json.Float f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error "expected a number"

let str_field name j =
  let* v = field name j in
  as_string v

let int_field name j =
  let* v = field name j in
  as_int v

let float_field name j =
  let* v = field name j in
  as_float v

(* cache-economy stats fields decode with a default when absent, so a
   client and daemon from either side of that change interoperate
   without a version bump *)
let int_field_default name ~default j =
  match field name j with Error _ -> Ok default | Ok v -> as_int v

let float_field_default name ~default j =
  match field name j with Error _ -> Ok default | Ok v -> as_float v

let budget_of_json j =
  let* population = int_field "population" j in
  let* generations = int_field "generations" j in
  let* measure_top = int_field "measure_top" j in
  let* seed = int_field "seed" j in
  Ok { Fingerprint.population; generations; measure_top; seed }

let op_of_json j =
  let* spec = str_field "spec" j in
  match spec with
  | "layer" ->
      let* label = str_field "label" j in
      Ok (Layer label)
  | "kind" ->
      let* kind = str_field "kind" j in
      let* batch = int_field "batch" j in
      let* index = int_field "index" j in
      Ok (Kind { kind; batch; index })
  | "dsl" ->
      let* text = str_field "text" j in
      Ok (Dsl_text text)
  | s -> Error (Printf.sprintf "unknown op spec %S" s)

let check_version j =
  let* v = int_field "v" j in
  if v = version then Ok ()
  else Error (Printf.sprintf "unsupported protocol version %d (want %d)" v version)

let tune_fields j =
  let* accel = str_field "accel" j in
  let* opj = field "op" j in
  let* op = op_of_json opj in
  let* bj = field "budget" j in
  let* budget = budget_of_json bj in
  Ok (accel, op, budget)

let request_of_json j =
  let* () = check_version j in
  let* ty = str_field "type" j in
  match ty with
  | "health" -> Ok Health
  | "stats" -> Ok Stats
  | "shutdown" -> Ok Shutdown
  | "lookup" ->
      let* accel, op, budget = tune_fields j in
      Ok (Lookup { accel; op; budget })
  | "tune" ->
      let* accel, op, budget = tune_fields j in
      Ok (Tune { accel; op; budget })
  | "migrate_tune" ->
      let* accel, op, budget = tune_fields j in
      Ok (Migrate_tune { accel; op; budget })
  | "compile" ->
      let* accel = str_field "accel" j in
      let* network = str_field "network" j in
      let* batch = int_field "batch" j in
      let* bj = field "budget" j in
      let* budget = budget_of_json bj in
      let* jobs = int_field "jobs" j in
      Ok (Compile { accel; network; batch; budget; jobs })
  | "cancel" ->
      let* request_id = int_field "id" j in
      Ok (Cancel { request_id })
  | s -> Error (Printf.sprintf "unknown request type %S" s)

let plan_of_json j =
  let* kind = str_field "kind" j in
  match kind with
  | "scalar" -> Ok Wire_scalar
  | "spatial" ->
      let* text = str_field "text" j in
      Ok (Wire_spatial text)
  | s -> Error (Printf.sprintf "unknown plan kind %S" s)

let response_of_json j =
  let* () = check_version j in
  let* ty = str_field "type" j in
  match ty with
  | "ok" ->
      let* info = str_field "info" j in
      Ok (Ok_r info)
  | "plan" ->
      let* fingerprint = str_field "fingerprint" j in
      let* pj = field "plan" j in
      let* plan = plan_of_json pj in
      let* source = str_field "source" j in
      let* evaluations = int_field "evaluations" j in
      let* tuning_seconds = float_field "tuning_seconds" j in
      Ok (Plan_r { fingerprint; plan; source; evaluations; tuning_seconds })
  | "not_found" -> Ok Not_found_r
  | "stats" ->
      let* uptime_s = float_field "uptime_s" j in
      let* requests = int_field "requests" j in
      let* tunes = int_field "tunes" j in
      let* deduped = int_field "deduped" j in
      let* hot_hits = int_field "hot_hits" j in
      let* cache_hits = int_field "cache_hits" j in
      let* busy_rejections = int_field "busy_rejections" j in
      let* in_flight = int_field "in_flight" j in
      let* queue_load = int_field "queue_load" j in
      let* hot_bytes = int_field_default "hot_bytes" ~default:0 j in
      let* hot_tuning_seconds =
        float_field_default "hot_tuning_seconds" ~default:0. j
      in
      let* cache_bytes = int_field_default "cache_bytes" ~default:0 j in
      let* quarantine_retunes =
        int_field_default "quarantine_retunes" ~default:0 j
      in
      let* forwarded = int_field_default "forwarded" ~default:0 j in
      let* peer_hits = int_field_default "peer_hits" ~default:0 j in
      let* peer_fallbacks = int_field_default "peer_fallbacks" ~default:0 j in
      let* budget_fallbacks =
        int_field_default "budget_fallbacks" ~default:0 j
      in
      let* auth_rejections = int_field_default "auth_rejections" ~default:0 j in
      let* deadline_rejections =
        int_field_default "deadline_rejections" ~default:0 j
      in
      let* cancels = int_field_default "cancels" ~default:0 j in
      Ok
        (Stats_r
           {
             uptime_s;
             requests;
             tunes;
             deduped;
             hot_hits;
             cache_hits;
             busy_rejections;
             in_flight;
             queue_load;
             hot_bytes;
             hot_tuning_seconds;
             cache_bytes;
             quarantine_retunes;
             forwarded;
             peer_hits;
             peer_fallbacks;
             budget_fallbacks;
             auth_rejections;
             deadline_rejections;
             cancels;
           })
  | "compiled" ->
      let* network = str_field "network" j in
      let* total_ops = int_field "total_ops" j in
      let* mapped_ops = int_field "mapped_ops" j in
      let* network_seconds = float_field "network_seconds" j in
      let* stages = int_field "stages" j in
      let* comp_cache_hits = int_field "cache_hits" j in
      let* comp_tuned = int_field "tuned" j in
      Ok
        (Compiled_r
           {
             network;
             total_ops;
             mapped_ops;
             network_seconds;
             stages;
             comp_cache_hits;
             comp_tuned;
           })
  | "busy" ->
      let* retry_after_s = float_field "retry_after_s" j in
      Ok (Busy_r { retry_after_s })
  | "error" ->
      let* message = str_field "message" j in
      Ok (Error_r message)
  | "progress" ->
      let latency name =
        match field name j with
        | Error _ -> Ok None
        | Ok v ->
            let* f = as_float v in
            Ok (Some f)
      in
      let* pg_generation = int_field "generation" j in
      let* pg_best_predicted = latency "best_predicted_s" in
      let* pg_best_measured = latency "best_measured_s" in
      let* pg_evaluations = int_field "evaluations" j in
      Ok
        (Progress_r
           { pg_generation; pg_best_predicted; pg_best_measured; pg_evaluations })
  | "cancelled" -> Ok Cancelled_r
  | "deadline_hint" ->
      let* projected_wait_s = float_field "projected_wait_s" j in
      Ok (Deadline_hint_r { projected_wait_s })
  | s -> Error (Printf.sprintf "unknown response type %S" s)

(* --- handshake ------------------------------------------------------ *)

let encode_hello h =
  Json.to_string
    (Json.Obj
       [
         ("v", Json.Int h.hello_version);
         ("type", Json.String "hello");
         ("token", Json.String h.token);
         ("origin", Json.String (if h.peer then "peer" else "client"));
       ])

(* The version travels back as data rather than being rejected at the
   codec: the server wants to answer a future client with a typed
   [Hello_denied "unsupported protocol version ..."], which it can only
   do after seeing what version was claimed. *)
let decode_hello s =
  let* j = Json.of_string s in
  let* ty = str_field "type" j in
  if ty <> "hello" then
    Error (Printf.sprintf "expected a hello frame, got %S" ty)
  else
    let* hello_version = int_field "v" j in
    let* token = str_field "token" j in
    let* origin = str_field "origin" j in
    let* peer =
      match origin with
      | "client" -> Ok false
      | "peer" -> Ok true
      | s -> Error (Printf.sprintf "unknown hello origin %S" s)
    in
    Ok { hello_version; token; peer }

let encode_hello_reply = function
  | Hello_ok -> Json.to_string (versioned "hello_ok" [])
  | Hello_denied reason ->
      Json.to_string
        (versioned "hello_denied" [ ("reason", Json.String reason) ])

let decode_hello_reply s =
  let* j = Json.of_string s in
  let* () = check_version j in
  let* ty = str_field "type" j in
  match ty with
  | "hello_ok" -> Ok Hello_ok
  | "hello_denied" ->
      let* reason = str_field "reason" j in
      Ok (Hello_denied reason)
  | s -> Error (Printf.sprintf "unknown hello reply type %S" s)

(* The deadline, request id and streaming opt-in ride the envelope, not
   the request constructors: they are transport metadata ("how long is
   this answer still worth sending", "call this exchange N", "I can
   read interleaved progress frames"), not part of what is being asked.
   Decoders that predate a field look fields up by name and simply
   never see it; encoders that never set one produce byte-identical
   frames to the pre-streaming protocol. *)
let encode_request ?deadline_ms ?request_id ?(accept_stream = false) r =
  let extras =
    (match deadline_ms with
    | None -> []
    | Some d -> [ ("deadline_ms", Json.Int d) ])
    @ (match request_id with
      | None -> []
      | Some id -> [ ("request_id", Json.Int id) ])
    @ if accept_stream then [ ("accept_stream", Json.Bool true) ] else []
  in
  let j =
    match (json_of_request r, extras) with
    | j, [] -> j
    | Json.Obj fields, extras -> Json.Obj (fields @ extras)
    | j, _ -> j
  in
  Json.to_string j

let encode_response r = Json.to_string (json_of_response r)

let envelope_of_json j =
  let opt_int name =
    match field name j with
    | Error _ -> Ok None
    | Ok v ->
        let* d = as_int v in
        Ok (Some d)
  in
  let* env_deadline_ms = opt_int "deadline_ms" in
  let* env_request_id = opt_int "request_id" in
  let* env_accept_stream =
    match field "accept_stream" j with
    | Error _ -> Ok false
    | Ok (Json.Bool b) -> Ok b
    | Ok _ -> Error "expected a boolean accept_stream"
  in
  Ok { env_deadline_ms; env_request_id; env_accept_stream }

let decode_request s =
  let* j = Json.of_string s in
  let* req = request_of_json j in
  let* env = envelope_of_json j in
  Ok (req, env)

let decode_response s =
  let* j = Json.of_string s in
  response_of_json j

(* --- framing ------------------------------------------------------- *)

(* header, payload and terminator built in one buffer, so a frame
   leaves in one write when the socket takes it whole *)
let write_frame ?(net = Net_io.default) fd payload =
  let len = String.length payload in
  if len > max_frame_bytes then
    invalid_arg "Protocol.write_frame: payload exceeds max_frame_bytes";
  let header = string_of_int len in
  let hdr = String.length header in
  let total = hdr + len + 2 in
  let frame = Bytes.create total in
  Bytes.blit_string header 0 frame 0 hdr;
  Bytes.set frame hdr '\n';
  Bytes.blit_string payload 0 frame (hdr + 1) len;
  Bytes.set frame (total - 1) '\n';
  let rec go off =
    if off < total then go (off + Net_io.write net fd frame off (total - off))
  in
  go 0

(* Bytes [start, stop) of [buf] were read but belong to no returned
   frame yet.  Nothing is consumed until a whole frame is in, so a read
   that raises part-way through a frame leaves the reader where it was. *)
type reader = {
  net : Net_io.t;
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
}

(* large enough for every lookup and progress frame; a larger frame
   grows the buffer to exactly its size *)
let initial_buffer_bytes = 4096

let reader ?(net = Net_io.default) fd =
  { net; fd; buf = Bytes.create initial_buffer_bytes; start = 0; stop = 0 }

type header = Partial | Header of int * int | Broken of string

(* header: decimal length terminated by '\n'; 8 digits bound any length
   we would accept, so a longer header is rejected early.  [Header (off,
   len)] gives the payload's offset in [buf] and its length. *)
let scan_header r =
  let rec go i acc =
    if i = r.stop then Partial
    else
      match Bytes.get r.buf i with
      | '\n' ->
          if i = r.start then Broken "empty frame header"
          else Header (i + 1, acc)
      | '0' .. '9' as c ->
          if i - r.start >= 8 then Broken "oversized frame header"
          else go (i + 1) ((acc * 10) + (Char.code c - Char.code '0'))
      | c -> Broken (Printf.sprintf "bad frame header byte %C" c)
  in
  go r.start 0

(* make room for [want] bytes from [start], moving the held bytes to the
   front and growing the buffer to exactly [want] when it is smaller;
   then read once.  False at end of stream. *)
let refill r want =
  let cap = Bytes.length r.buf in
  if r.start + want > cap then begin
    let held = r.stop - r.start in
    let dst = if want > cap then Bytes.create want else r.buf in
    Bytes.blit r.buf r.start dst 0 held;
    r.buf <- dst;
    r.start <- 0;
    r.stop <- held
  end;
  let n = Net_io.read r.net r.fd r.buf r.stop (Bytes.length r.buf - r.stop) in
  r.stop <- r.stop + n;
  n > 0

let rec read_frame r =
  match scan_header r with
  | Broken msg -> Error (`Bad msg)
  | Header (_, len) when len > max_frame_bytes ->
      Error (`Bad (Printf.sprintf "frame of %d bytes exceeds limit" len))
  | Header (off, len) when r.stop - off > len ->
      if Bytes.get r.buf (off + len) <> '\n' then
        Error (`Bad "missing frame terminator")
      else begin
        let payload = Bytes.sub_string r.buf off len in
        if off + len + 1 = r.stop then begin
          r.start <- 0;
          r.stop <- 0
        end
        else r.start <- off + len + 1;
        Ok payload
      end
  | Header (off, len) ->
      let hdr = off - r.start in
      if refill r (hdr + len + 1) then read_frame r
      else
        Error
          (`Bad
            (if r.stop - r.start - hdr < len then "truncated frame payload"
             else "truncated frame terminator"))
  | Partial ->
      let held = r.stop - r.start in
      if refill r (held + 1) then read_frame r
      else if held = 0 then Error `Eof
      else Error (`Bad "truncated frame header")
