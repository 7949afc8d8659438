(** Mediated filesystem layer with deterministic fault injection.

    Every disk operation the plan service performs goes through a
    {!t} handle.  The default handle ({!real}) passes straight through
    to the OS; a handle built with {!faulty} carries a {!Fault_plan} of
    one-shot triggers, so crash consistency becomes a unit-testable
    property: "the record append never lands", "the record append is
    torn after 10 bytes", "the compaction's rename is interrupted" are
    all reproducible, deterministic schedules rather than rare races.

    A faultable operation raises only two exceptions.  [Unix.Unix_error]
    is an OS error the process survives and must handle (EIO, ENOSPC,
    EISDIR); an injected {!Fail} raises it exactly as the OS would, so
    one handler covers the real and the injected failure.  {!Crashed}
    models the process dying mid-operation — tests catch it, abandon
    the handle, and reopen the directory with a fresh {!real} handle,
    exactly like a restart after a power cut. *)

type op =
  | Append  (** O_APPEND log writes *)
  | Write  (** whole-file (tmp) writes *)
  | Rename
  | Remove
  | Read  (** whole-file and positioned reads *)
  | Lock  (** lock-file acquisition *)

type mode =
  | Fail of Unix.error
      (** the operation does not happen; raises [Unix.Unix_error] with
          that error, the system call's name and the path *)
  | Crash_before  (** raises [Crashed] without performing the operation *)
  | Crash_after  (** performs the operation fully, then raises [Crashed] *)
  | Torn of int
      (** writes only the first [n] bytes of the payload, then raises
          [Crashed] — a torn write.  On non-write operations this
          behaves like [Crash_before]. *)

type fault = {
  op : op;
  after : int;  (** fire on the [after]-th matching call, counted from 0 *)
  mode : mode;
}

exception Crashed of string

type t

val real : unit -> t
(** No faults; plain OS operations. *)

val faulty : fault list -> t
(** One-shot triggers, as {!Fault_plan.Make.faulty}. *)

val op_count : t -> op -> int
(** How many calls of [op] this handle has mediated (fired or not). *)

(** {2 Operations}

    All paths are plain OS paths.  [exists], [file_size], [mtime],
    [mkdir_p] and [list_dir] never fault: the fault plans do not need
    to schedule against them. *)

val exists : t -> string -> bool
val file_size : t -> string -> int
(** 0 when the file does not exist. *)

val mtime : t -> string -> float
(** Last-modification time (seconds since the epoch); 0. when the file
    does not exist.  A non-faulting probe, like {!file_size}. *)

val mkdir_p : t -> string -> unit
(** Create the directory and any missing parents.  An existing entry,
    or one a concurrent process creates meanwhile, is success. *)

val list_dir : t -> string -> string list
(** Basenames, [[]] when the directory does not exist. *)

val read_file : t -> string -> string

val read_at : t -> string -> off:int -> len:int -> string
(** The [len] bytes at offset [off], fewer when the file ends first: a
    lookup reads one record, not the whole log.  Faults as [Read]. *)

val write_file : t -> string -> string -> unit
(** Whole-file create-or-truncate write in one [write(2)] call. *)

val append_line : t -> string -> string -> unit
(** [append_line t path line] appends [line ^ "\n"] with a single
    [write(2)] on an [O_APPEND] descriptor — concurrent appenders from
    other processes interleave at line granularity, never mid-line
    (for writes up to PIPE_BUF-ish sizes on local filesystems). *)

val rename : t -> string -> string -> unit
val remove : t -> string -> unit

val with_lock : t -> string -> (unit -> 'a) -> 'a
(** [with_lock t path f] runs [f] holding an exclusive [lockf] region
    lock on [path] (created if missing).  Released on any exit.  POSIX
    record locks are per-process: two handles in the same process do
    not block each other — the lock serializes {e processes}. *)

(** {2 Append-only logs} *)

val complete_lines : string -> string list * bool
(** [complete_lines text] is the non-empty newline-terminated lines of
    [text], in order, and whether a torn fragment (a writer died
    mid-append) follows the last newline. *)

(** {2 Unique temp names} *)

val fresh_tmp : string -> string
(** [fresh_tmp base] is [base ^ ".tmp-<pid>-<n>"] with a process-wide
    monotonic [n]: two processes (or two domains) preparing the same
    target never collide on the temp file. *)

val is_tmp : string -> bool
(** Recognizes names produced by {!fresh_tmp} (and legacy ["*.tmp"]),
    so a checker can sweep temp files abandoned by crashed writers. *)
