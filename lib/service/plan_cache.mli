(** Persistent, content-addressed store of tuned plans.

    Two layers: an in-memory cache of recently used entries over an
    on-disk directory of {!Amos.Plan_io} text files (one file per
    fingerprint, atomically written via a unique temp name + rename)
    plus an append-only journaled index ([journal.txt], [add]/[del]
    lines, compacted on open when it grows past twice the live set).

    Every lookup re-binds the stored text to the requesting operator and
    accelerator through [Plan_io.load], which re-runs the Algorithm-1
    mapping validation — a corrupt, truncated or stale entry therefore
    fails to load, is {e evicted} (memory, disk and journal) and the
    caller falls back to tuning.  The cache can never serve a plan that
    does not validate against the operator in hand.

    Scalar decisions ("the tuner chose the scalar units for this
    operator") are cached as explicit markers so that a warm cache
    avoids re-tuning unmappable operators too.

    {2 The cache economy}

    Every entry carries a {!Retain.item} — serialized bytes, the tuning
    seconds spent producing it, and its last-access time read off an
    injectable {!Clock} — persisted through the journal
    ([add <fp> <bytes> <tuning_seconds>]; bare legacy [add <fp>] lines
    load with the file's size and {!Retain.default_tuning_seconds}).
    Both layers keep their entries in a {!Retain.Table} — each owns its
    items, and a hit stamps the entry in both.  When [max_bytes] /
    [max_tuning_seconds] budgets are set, the disk layer evicts the
    table's {!Retain.Table.victim} — the lowest {!Retain.score}
    (tuning-seconds-saved per byte, age-decayed) — until it fits again;
    the in-memory layer evicts its own victim before admitting past
    [mem_capacity].  Passing [policy:`Lru] orders both layers by last
    access instead, a value-blind baseline kept so [bench cache_economy]
    can compare the two on identical code paths.

    {2 Crash consistency and multi-process sharing}

    The directory is safe to share between concurrent compiler
    processes.  The write protocol orders every store as {e entry file
    first} (tmp write + rename, with a PID-and-counter-unique temp
    name), {e journal add second} (a single [O_APPEND] write): a crash
    at any point leaves either nothing, an abandoned temp file, or an
    orphan entry file — never a journal line pointing at a plan that
    does not exist, and never a half-written plan served.  Journal
    rewrites (compaction, [clear], {!fsck}) run under an exclusive
    [lockf] lock on [<dir>/lock]; appends deliberately do not take the
    lock.  Lookups that miss the local index re-replay the journal, so
    one process observes another's stores without reopening.

    All disk traffic goes through an {!Fs_io} handle, so every one of
    these claims is exercised by deterministic fault injection in the
    test suite rather than assumed.

    A cache value is owned by one domain: share it across parallel
    tuning by doing lookups/stores on the coordinating domain (as
    {!Batch_compile} does), not from workers.  Cross-{e process} sharing
    needs no coordination beyond pointing at the same directory. *)

open Amos
open Amos_ir

type t

type value =
  | Spatial of Mapping.t * Schedule.t
  | Scalar  (** the tuner decided this operator runs on the scalar units *)

type policy = Retain.policy

val journal_version : int
(** Format version stamped as the first line of every journal this code
    writes (["amos-journal 1"]). *)

exception Unsupported_journal of { path : string; version : string }
(** Raised by any operation that replays a journal claiming a version
    other than {!journal_version} — {!create}, {!refresh}, {!clear},
    {!fsck}.  A journal with no stamp at all is a legacy pre-versioning
    journal and is accepted.  Fingerprint sharding ships cache state
    between fleet peers, so a format this build does not speak must
    fail loudly and typed, never be misparsed entry-by-entry. *)

type stats = {
  hits : int;
  misses : int;
  stores : int;
  lru_evictions : int;  (** memory-layer capacity evictions *)
  budget_evictions : int;
      (** disk-layer evictions forced by the byte / tuning-seconds
          budgets *)
  corrupt_evictions : int;
      (** entries that failed re-validation and were deleted *)
}

val create :
  ?mem_capacity:int ->
  ?max_bytes:int ->
  ?max_tuning_seconds:float ->
  ?policy:policy ->
  ?clock:Clock.t ->
  ?fs:Fs_io.t ->
  ?dir:string ->
  unit ->
  t
(** [dir] is created if missing; omit it for a memory-only cache.
    [mem_capacity] bounds the in-memory layer (default 256 entries);
    [max_bytes] / [max_tuning_seconds] budget the disk layer (default
    unbounded) — when either is exceeded after a store, lowest-scoring
    entries are evicted until the layer fits.  [policy] (default
    [`Scored]) selects the eviction order; [clock] (default
    {!Clock.real}) supplies every access stamp, so tests drive age decay
    with a virtual clock instead of sleeping.  [fs] (default
    {!Fs_io.real}) mediates all disk operations — pass a
    {!Fs_io.faulty} handle to test crash consistency.  Opening
    self-heals a torn trailing journal line. *)

val dir : t -> string option

val fs_handle : t -> Fs_io.t
(** The {!Fs_io} handle mediating this cache's disk traffic — exposed so
    sibling persistence (e.g. {!Badlist} markers stored next to the
    cache) rides the same fault-injection plan in tests. *)

val lookup :
  t -> accel:Accelerator.t -> op:Operator.t -> budget:Fingerprint.budget ->
  value option
(** [None] is a miss (absent, unreadable, or present but failed
    re-validation).  A miss on the local index triggers a journal
    {!refresh} first, so stores from concurrent processes are found.
    A hit stamps the entry's last-access time from the cache's clock. *)

val lookup_migratable :
  t -> accel:Accelerator.t -> op:Operator.t -> budget:Fingerprint.budget ->
  (string * string * string) list
(** Same-operator, different-accelerator fallback: plans whose
    accelerator-independent {!Fingerprint.op_key} matches the request but
    that were tuned for another accelerator — migration seeds (see
    {!Migrate}).  Returns [(fingerprint, source accelerator name,
    Plan_io text)] triples sorted by (accelerator name, fingerprint);
    Scalar entries and entries written before the op-key header existed
    are skipped.  Read-only: never touches the memory layer or the
    stats. *)

val store :
  ?provenance:Plan_io.provenance ->
  ?tuning_seconds:float ->
  t -> accel:Accelerator.t -> op:Operator.t -> budget:Fingerprint.budget ->
  value -> unit
(** May raise [Unix.Unix_error] (disk errors): the in-memory layer is
    already updated when that happens, and the on-disk state and its
    accounting are left consistent (possibly without the new entry, or
    with the entry it would have overwritten).  [provenance] (for
    plans that won via migration) is serialized into the plan text.
    [tuning_seconds] (default {!Retain.default_tuning_seconds}) is the
    exploration cost this entry amortizes — it drives the retention
    score and is persisted in both the entry header ([tuned_in]) and the
    journal.  Storing may trigger budget evictions of lower-scoring
    entries (possibly including the one just stored, if it is worth the
    least). *)

val refresh : t -> unit
(** Re-replay the journal if its size changed since we last read it —
    i.e. pick up entries stored by other processes.  Called
    automatically by [lookup] on index misses. *)

val trim : t -> int
(** [refresh] then enforce the budgets now; returns the number of
    entries evicted.  Useful against a directory grown by other
    processes (and wired to [amos cache trim]). *)

val mem_size : t -> int
val disk_size : t -> int
(** Number of live fingerprints in the index (0 for memory-only). *)

val disk_bytes : t -> int
(** Accounted bytes across live entries (from the journal's value
    records, not per-call [stat]s). *)

val disk_tuning_seconds : t -> float
(** Total tuning seconds the disk layer currently protects. *)

val info : t -> fingerprint:string -> Retain.item option
(** The value accounting for one live on-disk entry. *)

val eviction_log : t -> (string * float * float) list
(** Newest first, capped: [(fingerprint, victim score, lowest retained
    score)] recorded at each budget eviction — the property tests check
    that no retained entry ever scored below the victim. *)

val stats : t -> stats
val clear : t -> unit
(** Drop every entry, on disk too (under the directory lock, including
    entries added by other processes); resets statistics. *)

(** {2 Offline checking and repair} *)

type fsck_report = {
  live : int;  (** valid entries referenced by the rewritten journal *)
  bytes : int;
      (** accounted bytes after repair — measured from the files, so a
          journal whose value records drifted is corrected here *)
  adopted : int;
      (** orphan entry files (valid header, no journal line) re-added *)
  quarantined : int;
      (** corrupt entry files renamed to [*.plan.quarantined] *)
  unreadable : int;
      (** entry files a read error kept fsck from checking; each keeps
          its file and journal add (an orphan stays unadopted) *)
  dropped : int;  (** journal adds whose entry file is gone or corrupt *)
  tmp_removed : int;  (** abandoned temp files removed *)
  torn_repaired : bool;  (** the journal did not end in a newline *)
  quarantine_reclaimed : int;
      (** quarantine files older than the TTL that were removed *)
  known_bad : int;  (** {!Badlist} markers next to the cache *)
  obs_records : int;
      (** well-formed lines in the learned-model observation log
          ([observations.log]) living next to the plans *)
  obs_skipped : int;
      (** malformed observation lines (excluding the version stamp) *)
  obs_torn_repaired : bool;
      (** the observation log had a torn trailing fragment, now
          newline-terminated *)
}

val fsck :
  ?fs:Fs_io.t -> ?clock:Clock.t -> ?quarantine_ttl:float -> dir:string ->
  unit -> fsck_report
(** Replay the journal, validate every entry file's header against its
    fingerprint, adopt orphans, quarantine corruption, sweep abandoned
    temp files, and rewrite a compact journal — all under the directory
    lock.  Byte and tuning-second accounting is rebuilt from the entry
    files themselves (actual size, [tuned_in] header), so crash-torn
    journals recover correct value records.  Safe to run against a live
    directory (writers only append).  Never deletes plan content:
    corrupt files are renamed, not removed, and a file that cannot be
    read is left as it is — except that passing
    [quarantine_ttl] (seconds; omitted = keep forever) reclaims
    quarantine files whose mtime is older than the TTL, judged against
    [clock] (default {!Clock.real}).  The report also counts the
    {!Badlist} known-bad markers living next to the cache
    (informational: they never affect {!fsck_clean}), and checks the
    learned-model observation log ([observations.log]) at the line
    level — counting records and junk, and terminating a torn trailing
    fragment so later appends land cleanly.  Observation-log figures
    are informational too. *)

val fsck_clean : fsck_report -> bool
(** No quarantined or unreadable entries and no dropped journal lines. *)

val describe_fsck : fsck_report -> string
