(** Persistent "known-bad" markers next to the plan cache.

    A stage whose tuning failed degrades to the scalar fallback; without
    a durable record, every {e cold} compile re-pays the failed tuning
    attempt for the same fingerprint.  The badlist persists those
    decisions — one [bad <fingerprint> <epoch> <reason>] line per marker
    in [known_bad.txt] next to the cache — so {!Batch_compile} skips
    straight to the scalar plan on later cold compiles.

    Markers are {e advisory}, never plans: clearing the file simply
    re-enables tuning attempts.  Writes go through {!Fs_io} (one
    O_APPEND line per marker) so crash-consistency and fault injection
    work exactly like the cache journal; a torn trailing line is ignored
    on load. *)

type t

val file_name : string
(** Basename of the marker file inside the cache directory. *)

val load : ?fs:Fs_io.t -> ?clock:Clock.t -> dir:string -> unit -> t
(** Read the current marker set ([fs] defaults to {!Fs_io.real}; an
    unreadable or absent file yields an empty set).  [clock] (default
    {!Clock.real}) stamps markers written through {!mark}, so tests pin
    marker times without sleeping. *)

val mem : t -> string -> bool
val reason : t -> string -> string option
val size : t -> int

val mark : t -> fingerprint:string -> reason:string -> unit
(** Record a fingerprint as known-bad (in memory and on disk); a
    fingerprint already marked is left alone.  May raise
    [Unix.Unix_error] (disk errors) or [Fs_io.Crashed] — the in-memory
    set is updated first, so the caller's run is unaffected. *)

val entries : t -> (string * float * string) list
(** [(fingerprint, marked-at, reason)] triples, sorted. *)

val list : ?fs:Fs_io.t -> dir:string -> unit -> (string * float * string) list
(** One-shot [load] + [entries], for fsck-style reporting. *)

val clear : ?fs:Fs_io.t -> dir:string -> unit -> int
(** Remove the marker file; returns how many markers it held. *)
