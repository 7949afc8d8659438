(** Scored hot front cache for the daemon.

    The in-process layer in front of the persistent {!Plan_cache}:
    already-encoded wire plans served without touching disk.  Entries
    live in a {!Amos_service.Retain.Table}, the table under both
    {!Plan_cache} layers too, and eviction removes its [`Scored] victim,
    the lowest {!Amos_service.Retain.score} first — a burst of cheap
    lookups cannot flush the plans that were expensive to tune, which
    the FIFO it replaced allowed.

    Admission dedups on fingerprint: re-admitting replaces the entry
    and never double-counts its bytes.

    Not thread-safe — the server serializes access under its own state
    mutex. *)

open Amos_service

type 'a t

val create : ?max_bytes:int -> capacity:int -> clock:Clock.t -> unit -> 'a t
(** [capacity] bounds the entry count (minimum 1); [max_bytes] (default
    unbounded) additionally budgets the bytes held.  [clock] supplies
    access stamps for the age decay. *)

val find : 'a t -> string -> 'a option
(** A hit stamps the entry's last access from the clock. *)

val mem : 'a t -> string -> bool

val put : 'a t -> string -> 'a -> bytes:int -> tuning_seconds:float -> unit
(** Admit (or replace) first, then evict lowest-scoring entries while
    over capacity or over the byte budget.  At least one entry is
    always retained, even when it alone exceeds [max_bytes] — the hot
    layer is a cache of last resort, not a correctness gate. *)

val size : 'a t -> int
val bytes : 'a t -> int
(** Accounted bytes currently held (a running total, not a scan). *)

val tuning_seconds : 'a t -> float
(** Total tuning seconds the hot layer currently protects. *)

val evictions : 'a t -> int
val clear : 'a t -> unit
