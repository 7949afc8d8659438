(** Wire protocol of the plan-serving daemon.

    Framing: every message is one frame — the decimal byte length of
    the payload, a newline, the payload, a newline.  Frames larger than
    {!max_frame_bytes} are rejected before the payload is read, so a
    hostile or corrupt peer cannot make the daemon buffer unbounded
    data.

    Payloads are single-line JSON objects carrying an explicit protocol
    version field ["v"]; a decoder that sees any other version refuses
    the message rather than guessing.  Operators travel either as an
    evaluation-suite reference (ResNet layer label / kind+batch+index)
    or as full DSL text, so a client can request tuning for operators
    the server has never seen.

    Tuned plans travel as {!Amos.Plan_io} text: the client re-binds the
    plan against its own operator and accelerator through
    [Plan_io.load], which re-runs the Algorithm-1 validation — the wire
    cannot introduce a plan that does not validate.  The text names the
    iterations of the operator it was tuned for, and binds them by
    position, so every client of one fingerprint can bind the plan the
    daemon holds for it, whatever the client calls its iterations. *)

val version : int
(** Current protocol version (1). *)

val max_frame_bytes : int
(** Upper bound on a frame payload (4 MiB). *)

type op_spec =
  | Layer of string  (** ResNet-18 layer label, e.g. ["C5"] *)
  | Kind of { kind : string; batch : int; index : int }
      (** evaluation-suite operator, e.g. GMM #0 at batch 16 *)
  | Dsl_text of string  (** full operator in the paper's DSL *)

type request =
  | Health
  | Stats
  | Shutdown  (** drain in-flight work, then stop accepting *)
  | Lookup of { accel : string; op : op_spec; budget : Amos_service.Fingerprint.budget }
      (** cache-only: never triggers tuning *)
  | Tune of { accel : string; op : op_spec; budget : Amos_service.Fingerprint.budget }
  | Migrate_tune of {
      accel : string;
      op : op_spec;
      budget : Amos_service.Fingerprint.budget;
    }
      (** tune warm-started from cross-accelerator plans already in the
          server's cache (see [Amos_service.Migrate]) *)
  | Compile of {
      accel : string;
      network : string;
      batch : int;
      budget : Amos_service.Fingerprint.budget;
      jobs : int;
    }  (** whole-network compile through the plan service *)
  | Cancel of { request_id : int }
      (** detach the waiter that registered [request_id] (the envelope
          field of an earlier streaming request, usually sent on a
          second connection while the first is reading frames): that
          waiter's stream ends with {!Cancelled_r}, the shared
          single-flight exploration keeps running for its co-waiters,
          and the {e last} waiter detaching aborts it at the next
          generation boundary *)

type envelope = {
  env_deadline_ms : int option;
      (** remaining time budget (see {!encode_request}) *)
  env_request_id : int option;
      (** sender-chosen id naming this exchange, so a {!Cancel} from
          another connection can find it *)
  env_accept_stream : bool;
      (** the sender can read {!Progress_r} frames interleaved before
          the final reply; senders that never set it get exactly the
          one-frame exchange of the pre-streaming protocol *)
}
(** Transport metadata riding the request object.  Every field is
    absent on the wire by default — a pre-streaming peer neither sends
    nor sees any of them, so none of this is a version bump. *)

val empty_envelope : envelope

type hello = {
  hello_version : int;  (** protocol version the connector speaks *)
  token : string;  (** shared fleet token (empty when none configured) *)
  peer : bool;
      (** [true] when the connector is another daemon forwarding on
          behalf of a client: requests from peers are never forwarded
          again, which bounds fleet routing to one hop *)
}
(** First frame on every TCP connection; Unix-socket connections are
    local and trusted and skip the handshake. *)

type hello_reply =
  | Hello_ok
  | Hello_denied of string
      (** typed rejection — bad token, unsupported version, or a
          non-hello first frame; the connection is closed after it *)

type plan_wire =
  | Wire_scalar  (** the tuner chose the scalar units *)
  | Wire_spatial of string  (** [Plan_io] text *)

type tune_reply = {
  fingerprint : string;
  plan : plan_wire;
  source : string;
      (** ["hot"], ["cache"], ["tuned"], ["deduped"] — where the server
          found the plan *)
  evaluations : int;
  tuning_seconds : float;
}

type server_stats = {
  uptime_s : float;
  requests : int;  (** frames dispatched *)
  tunes : int;  (** explorations actually run *)
  deduped : int;  (** requests coalesced onto an in-flight tune *)
  hot_hits : int;  (** served from the in-memory front cache *)
  cache_hits : int;  (** served from the plan cache *)
  busy_rejections : int;  (** admission control refusals *)
  in_flight : int;  (** tuning fingerprints currently being explored *)
  queue_load : int;  (** tuning tasks queued + running *)
  hot_bytes : int;  (** bytes held by the hot front cache *)
  hot_tuning_seconds : float;
      (** tuning seconds the hot front cache protects *)
  cache_bytes : int;  (** accounted bytes in the persistent cache *)
  quarantine_retunes : int;
      (** quarantined fingerprints re-tuned by the idle drain *)
  forwarded : int;  (** requests routed to their fleet owner *)
  peer_hits : int;  (** forwarded requests the owner served a plan for *)
  peer_fallbacks : int;
      (** forwards abandoned for the local path (owner down or busy) *)
  budget_fallbacks : int;
      (** forwards skipped because the request's remaining deadline
          budget was too small to pay for a fleet hop *)
  auth_rejections : int;  (** TCP handshakes denied *)
  deadline_rejections : int;
      (** tunes refused with {!Deadline_hint_r}: the queue's projected
          wait already exceeded the request's deadline budget *)
  cancels : int;  (** streaming waiters detached by {!Cancel} *)
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

type progress_body = {
  pg_generation : int;
      (** genetic generations completed so far across the exploration *)
  pg_best_predicted : float option;
      (** best model-predicted latency so far (seconds); [None] before
          the first generation completes *)
  pg_best_measured : float option;
      (** best simulator-measured latency so far (seconds); [None]
          before the first measurement *)
  pg_evaluations : int;  (** model evaluations spent so far *)
}
(** One streamed snapshot of an in-flight exploration. *)

type response =
  | Ok_r of string  (** health / shutdown acknowledgement *)
  | Plan_r of tune_reply
  | Not_found_r  (** [Lookup] miss *)
  | Stats_r of server_stats
  | Compiled_r of compile_reply
  | Busy_r of { retry_after_s : float }
      (** admission control: the tuning queue is full; retry after the
          hinted delay *)
  | Error_r of string
  | Progress_r of progress_body
      (** interleaved before the final reply, only on exchanges whose
          request envelope set [accept_stream]; any number may arrive,
          including zero (a cache hit streams nothing) *)
  | Cancelled_r
      (** terminal reply of a streaming exchange detached by {!Cancel} *)
  | Deadline_hint_r of { projected_wait_s : float }
      (** deadline-aware admission: the queue's projected wait already
          exceeds the request's [deadline_ms], so the request was
          refused {e before} enqueueing; the hint carries the projected
          wait so the client can re-budget or go elsewhere *)

(** {2 Codec} *)

val encode_hello : hello -> string

val decode_hello : string -> (hello, string) result
(** Unlike the other decoders this accepts any version field and
    returns it as data: the server denies a version mismatch with a
    typed {!Hello_denied} naming both versions, which requires decoding
    the claim first.  A payload that is not a hello at all (e.g. an old
    client sending a request without the handshake) is an [Error]. *)

val encode_hello_reply : hello_reply -> string
val decode_hello_reply : string -> (hello_reply, string) result

val encode_request :
  ?deadline_ms:int -> ?request_id:int -> ?accept_stream:bool -> request -> string
(** [deadline_ms] is the request's {e remaining time budget}: how many
    milliseconds the sender still considers an answer useful.
    [request_id] names the exchange so a later {!Cancel} can find it;
    [accept_stream] (default [false]) declares the sender reads
    {!Progress_r} frames.  All three travel in the envelope, not the
    request — decoders from before a field existed ignore it, and with
    none of them set the frame is byte-identical to the pre-streaming
    encoding, so none is a version bump. *)

val decode_request : string -> (request * envelope, string) result
(** The decoded request plus its {!envelope}; a request from a
    pre-streaming client decodes with {!empty_envelope}. *)

val encode_response : response -> string
val decode_response : string -> (response, string) result
(** Decoders reject malformed JSON, missing fields, unknown message
    types, and any version field other than {!version}. *)

(** {2 Framing}

    Both directions go through a {!Net_io} handle ([?net], default
    {!Net_io.default} = plain OS I/O), so every socket pathology the
    fault plans can express — short reads, partial writes, resets and
    corruption mid-frame — exercises exactly this code.  A [Read] fault
    counts the reads a {!reader} makes into its buffer (usually one per
    frame, or one for several pipelined frames), and a [Write] fault
    the writes of {!write_frame} (usually one per frame). *)

val write_frame : ?net:Net_io.t -> Unix.file_descr -> string -> unit
(** Sends header, payload and terminator from one buffer.  Raises
    [Invalid_argument] when the payload exceeds {!max_frame_bytes};
    [Unix.Unix_error] on I/O failure. *)

type reader
(** The receiving side of one connection: a buffer over its descriptor.
    One {!Net_io.read} fills the buffer with as much as the socket
    holds, so a frame usually costs one read, and bytes past the frame
    (the next frame of a pipelined peer) wait in the buffer for the
    next {!read_frame}.  A connection must read every frame through one
    reader: a second reader would miss what the first has buffered. *)

val reader : ?net:Net_io.t -> Unix.file_descr -> reader
(** A reader over [fd] whose reads go through [net] (default
    {!Net_io.default}).  The buffer starts at 4 KiB and grows only to
    the largest frame read. *)

val read_frame : reader -> (string, [ `Eof | `Bad of string ]) result
(** The next frame's payload.  [`Eof] for a clean end-of-stream before
    the first header byte; [`Bad _] for truncated frames, malformed
    headers (empty, a non-digit byte, more than 8 digits), a missing
    terminator, corrupted bytes, and oversized lengths — an oversized
    frame is rejected on its header alone, its payload never read.

    Bytes leave the buffer only with a whole frame.  When a read raises
    part-way through a frame ([Unix.Unix_error], e.g. [EAGAIN] from a
    receive timeout or [EINTR] from a signal), the exception propagates
    and the next call resumes that frame where the read stopped.  After
    an [Error] the stream cannot be trusted: drop the connection. *)
