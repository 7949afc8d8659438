(** Persistent, content-addressed store of tuned plans.

    {2 Layers}

    An in-memory cache of recently used entries over one append-only
    log on disk, [journal.txt], stamped [amos-journal 2].  Every stored
    plan is one record line,
    [add <fp> <bytes> <tuning_seconds> <digest> <entry>]: the entry is
    the plan's text (newlines and backslashes escaped onto the line) and
    [<digest>] its MD5; an eviction appends [del <fp>], and later lines
    win.  The index maps each live fingerprint to its record's offset and
    accounting, never to its text, so a disk-tier lookup is one
    positioned read that checks the fingerprint and digest.

    Every lookup re-binds the stored plan to the requesting operator and
    accelerator through [Plan_io.bind], which re-runs the Algorithm-1
    mapping validation and the schedule check — a corrupt, truncated or
    stale entry therefore fails to bind, is {e evicted} (memory, index
    and a [del] record) and the caller falls back to tuning.  The cache
    can never serve a plan that does not validate against the operator
    in hand.  The text is parsed ([Plan_io.parse]) once per memory
    entry, when a disk-tier hit admits it or at a stored entry's first
    hit, so a memory-tier hit costs the fingerprint and the bind.  A
    plan binds by position to any operator of its fingerprint, whatever
    its iterations are called.

    Scalar decisions ("the tuner chose the scalar units for this
    operator") are cached as explicit markers so that a warm cache
    avoids re-tuning unmappable operators too.

    {2 The cache economy}

    Every entry carries a {!Retain.item} — serialized bytes, the tuning
    seconds spent producing it, and its last-access time read off an
    injectable {!Clock} — persisted in its record.  Both layers keep
    their entries in a {!Retain.Table} — each owns its items, and a hit
    stamps the entry in both.  When [max_bytes] / [max_tuning_seconds]
    budgets are set, the disk layer evicts the table's
    {!Retain.Table.victim} — the lowest {!Retain.score}
    (tuning-seconds-saved per byte, age-decayed) — until it fits again;
    the in-memory layer evicts its own victim before admitting past
    [mem_capacity].  Passing [policy:`Lru] orders both layers by last
    access instead, a value-blind baseline kept so [bench cache_economy]
    can compare the two on identical code paths.

    {2 Write protocol and crash consistency}

    A store is one [O_APPEND] write of its record (a fresh journal's
    stamp rides in the same write).  A crash leaves the record whole or
    a torn tail; replay reads only complete lines, so a torn tail is
    skipped, and the next writer rewrites it away before appending, so
    the fragment never absorbs another record.  An identical overwrite
    appends nothing.  Rewrites — compaction once dead records outnumber
    the live ones (on open and in a running handle alike, so a budgeted
    cache bounds its directory), {!clear} and {!fsck} — write the live
    records to a temp file and rename it over the journal; a crash
    before the rename leaves the old journal whole.

    {2 Sharing between handles and processes}

    The directory is safe to share between concurrent compiler
    processes, and between handles in one process (the daemon opens one
    per network compile).  Appends and rewrites serialize under an
    exclusive [lockf] lock on [<dir>/lock] plus a per-directory mutex
    shared by the process's handles, since [lockf] does not exclude
    those; no store is lost to another's compaction.  Readers take no
    lock: a handle picks up other handles' records by reading past the
    offset it last read, and a journal compacted behind its back — one
    that shrank, or whose new tail does not start on a line boundary —
    is replayed whole, as is a lookup whose offset no longer holds its
    record.

    A directory written before the log (one [<fp>.plan] file per entry
    next to an [add]/[del] journal, stamped [amos-journal 1] or not at
    all) is imported once, under the lock, on open or {!fsck}: the live
    entries are copied verbatim with the accounting they had, files the
    journal did not vouch for are set aside as quarantine, one rename
    switches the journal, and the copied files are removed last.  An
    older build opening the new journal gets {!Unsupported_journal}.

    All disk traffic goes through an {!Fs_io} handle, so every one of
    these claims is exercised by deterministic fault injection in the
    test suite rather than assumed.

    A cache value is owned by one domain: share it across parallel
    tuning by doing lookups/stores on the coordinating domain (as
    {!Batch_compile} does), not from workers. *)

open Amos
open Amos_ir

type t

type value =
  | Spatial of Mapping.t * Schedule.t
  | Scalar  (** the tuner decided this operator runs on the scalar units *)

type policy = Retain.policy

val journal_version : int
(** Format version stamped as the first line of every journal this code
    writes (["amos-journal 2"]). *)

exception Unsupported_journal of { path : string; version : string }
(** Raised by any operation that replays a journal claiming a version
    other than {!journal_version} — {!create}, {!refresh}, {!fsck} —
    except version 1 and the unstamped journal before it, which are
    imported.  Fingerprint sharding ships cache state between fleet
    peers, so a format this build does not speak must fail loudly and
    typed, never be misparsed entry-by-entry. *)

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
    rewrites a torn journal tail away and imports a version-1
    directory. *)

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
    A read error misses and keeps the record.  A hit stamps the entry's
    last-access time from the cache's clock. *)

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
    accounting are left consistent (without the new record, so with
    the entry it would have overwritten).  [provenance] (for plans that
    won via migration) is serialized into the plan text.
    [tuning_seconds] (default {!Retain.default_tuning_seconds}) is the
    exploration cost this entry amortizes — it drives the retention
    score and is persisted in both the entry header ([tuned_in]) and the
    record.  Storing may trigger budget evictions of lower-scoring
    entries (possibly including the one just stored, if it is worth the
    least). *)

val refresh : t -> unit
(** Read the records other handles and processes appended since we
    last read (or replay a journal compacted behind our back).  Called
    automatically by [lookup] on index misses. *)

val trim : t -> int
(** [refresh] then enforce the budgets now; returns the number of
    entries evicted.  Useful against a directory grown by other
    processes (and wired to [amos cache trim]). *)

val mem_size : t -> int
val disk_size : t -> int
(** Number of live fingerprints in the index (0 for memory-only). *)

val disk_bytes : t -> int
(** Accounted bytes across live entries: the sum of their entries'
    sizes, as their records state them. *)

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
(** Drop every entry, on disk too (one rename under the directory lock,
    including entries added by other processes); resets statistics. *)

val quarantined : t -> string list
(** Fingerprints whose corrupt record {!fsck} set aside in a
    [<fp>.plan.quarantined] file and that have no live record — the
    ones a re-tune would restore — sorted.  A quarantine file whose
    fingerprint is live again was superseded, and is removed here. *)

val unquarantine : t -> string -> unit
(** Remove a fingerprint's quarantine file once a fresh plan replaced
    it; a failing remove leaves it for {!quarantined} to sweep. *)

(** {2 Offline checking and repair} *)

type fsck_report = {
  live : int;  (** valid records in the rewritten journal *)
  bytes : int;
      (** accounted bytes after repair — measured from the entries, so a
          record whose accounting drifted is corrected here *)
  quarantined : int;
      (** corrupt records whose entry was set aside in
          [<fp>.plan.quarantined] *)
  unreadable : int;
      (** 1 when a read error kept fsck from checking the journal, which
          it then leaves as it is *)
  tmp_removed : int;
      (** abandoned temp files, and entry files an interrupted import
          left behind, removed *)
  torn_repaired : bool;  (** the journal ended in a torn fragment *)
  quarantine_reclaimed : int;
      (** quarantine files older than the TTL that were removed *)
  known_bad : int;  (** {!Badlist} markers next to the cache *)
}

val fsck :
  ?fs:Fs_io.t -> ?clock:Clock.t -> ?quarantine_ttl:float -> dir:string ->
  unit -> fsck_report
(** Replay the journal (importing a version-1 directory first), check
    every live record's entry against its digest and header, quarantine
    corruption, sweep abandoned temp files, and rewrite a compact
    journal — all under the directory lock.  Byte and tuning-second
    accounting is rebuilt from the entries themselves (actual size,
    [tuned_in] header).  Safe to run against a live directory.  Never
    deletes plan content: a corrupt record's entry is written to
    [<fp>.plan.quarantined] before the rewrite drops it, a failing
    write rewrites nothing, and a journal that cannot be read is left
    as it is — except that passing [quarantine_ttl] (seconds; omitted =
    keep forever) reclaims quarantine files whose mtime is older than
    the TTL, judged against [clock] (default {!Clock.real}).  The
    report also counts the {!Badlist} known-bad markers living next to
    the cache (informational: they never affect {!fsck_clean}). *)

val fsck_clean : fsck_report -> bool
(** No quarantined records and no unreadable journal. *)

val describe_fsck : fsck_report -> string
