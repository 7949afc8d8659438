(** Append-only, versioned observation store under the plan-cache
    directory.

    Every tuning run — CLI tune/profile, batch compile, the plan-serving
    daemon — appends one record per simulator measurement: fingerprint,
    accelerator, timestamp, the {!Features} vector of the measured
    candidate, the analytic prediction and the measured seconds.  This
    is the raw material {!Calibrate.fit} closes the model-vs-simulator
    loop with.

    Storage discipline matches the plan journal: a version stamp as the
    first line with a typed rejection of unknown versions, one record
    per line appended with a single [O_APPEND] write (line-atomic across
    processes and domains), disk I/O through the fault-injectable
    {!Amos_service.Fs_io}, timestamps through
    {!Amos_service.Clock} — so torn writes and crashes are deterministic
    test cases, not hopes.  A torn trailing line (a writer died
    mid-append) is ignored by readers and healed by {!heal} or
    [cache fsck]; it costs at most one observation. *)

val file_name : string
(** ["observations.log"], relative to the cache directory.  [cache fsck]
    treats this name specially (torn-line healing, record counting) —
    the test suite pins the agreement. *)

val version : int
(** Format version stamped as the first line (["amos-obs 1"]). *)

exception Unsupported_obs_log of { path : string; version : string }
(** Raised when reading a log claiming any other version. *)

type record = {
  fingerprint : string;  (** {!Amos_service.Fingerprint.key} of the run *)
  accel : string;  (** accelerator name *)
  at : float;  (** clock seconds when the observation was appended *)
  predicted : float;  (** uncorrected analytic model seconds *)
  measured : float;  (** simulator seconds *)
  features : float array;  (** {!Features.of_summary} of the candidate *)
}

type t
(** An open log handle: directory, filesystem and clock.  Appends are
    line-atomic; callers sharing one handle across domains serialize
    externally (see [Par_tune]'s observer wrapping). *)

val create :
  ?fs:Amos_service.Fs_io.t ->
  ?clock:Amos_service.Clock.t ->
  dir:string ->
  unit ->
  t
(** Creates the directory and stamps an empty log with the version line
    (under a lock, so concurrent creators stamp once). *)

val append :
  t ->
  fingerprint:string ->
  accel:string ->
  predicted:float ->
  measured:float ->
  features:float array ->
  unit
(** One record, one [O_APPEND] write; the timestamp is read from the
    handle's clock.  May raise [Unix.Unix_error] (disk errors) or
    [Fs_io.Crashed] — callers treat the log as best-effort. *)

val observer :
  t ->
  config:Spatial_sim.Machine_config.t ->
  fingerprint:string ->
  accel:string ->
  Amos.Explore.observation ->
  unit
(** The bridge to the tuner: an [?observe] callback that extracts
    {!Features} from the observation's summary and appends.  Append
    failures are swallowed (logged on ["amos.learn"]): observation is a
    side channel and must never fail a tune. *)

val read : ?fs:Amos_service.Fs_io.t -> dir:string -> unit -> record list
(** All well-formed records in append order; [[]] when the log does not
    exist.  Skips malformed lines and a torn trailing fragment; raises
    {!Unsupported_obs_log} on a version mismatch. *)

type scan = {
  records : int;  (** well-formed observation lines *)
  skipped : int;  (** malformed lines (excluding the version stamp) *)
  torn : bool;  (** the log does not end in a newline *)
  bytes : int;  (** file size *)
}

val scan : ?fs:Amos_service.Fs_io.t -> dir:string -> unit -> scan
(** Integrity summary without materialising records (used by
    [cache stats]); zeroes when the log does not exist.  Raises
    {!Unsupported_obs_log} like {!read}. *)

val heal : ?fs:Amos_service.Fs_io.t -> dir:string -> unit -> bool
(** Terminate a torn trailing line by appending a newline (the fragment
    becomes a skipped line); [true] when something was repaired. *)
