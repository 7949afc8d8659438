(** Per-peer circuit breaker with latency awareness.

    The generalization of the PR 6 peer badlist: where the badlist
    only knew {e dead} (a failed forward opens a doubling backoff
    window), the breaker also knows {e degraded} — it tracks an EWMA
    of each peer's response latency and trips on a slow-but-alive
    owner, so a peer that answers in 8 s instead of 8 ms costs the
    fleet one slow probe per window rather than one slow round trip
    per lookup.

    States follow the classic contract:

    - {b Closed}: requests flow.  A transport failure, or a success
      whose EWMA latency crosses the threshold, trips the breaker.
    - {b Open}: {!available} is [false]; the fleet skips the peer and
      serves locally.  The window doubles with each consecutive trip
      (base 1 s, capped at 30 s by default).
    - {b Half-open}: the window expired; exactly {e one} caller gets
      [true] from {!available} and becomes the probe.  A healthy probe
      answer closes the breaker and forgets the history; a failed or
      still-slow probe re-opens it with a doubled window.

    Like the badlist it replaces, this is in-memory, per-daemon state
    on the injectable {!Amos_service.Clock} — peer health is
    transient, safe to forget, wrong to persist. *)

type state = Closed | Open | Half_open

type t

val create :
  ?base_backoff_s:float ->
  ?max_backoff_s:float ->
  ?latency_threshold_s:float ->
  ?ewma_alpha:float ->
  ?clock:Amos_service.Clock.t ->
  unit ->
  t
(** Defaults: base 1 s, cap 30 s, latency threshold 5 s, EWMA weight
    0.3, real clock.  Tests pass a virtual clock and step it instead
    of sleeping. *)

val available : t -> string -> bool
(** May this caller send to the peer right now?  [true] in closed
    state; [false] while the open window holds.  The first call after
    the window expires transitions to half-open, returns [true], and
    {e claims the probe}: concurrent callers get [false] until that
    probe resolves via {!success} or {!failure}. *)

val success : t -> string -> latency_s:float -> unit
(** The peer answered in [latency_s] seconds.  Folds the sample into
    the EWMA; if the EWMA is above the threshold the breaker trips
    exactly as on a failure (slow is a failure mode), otherwise the
    breaker closes and the failure history is forgotten. *)

val failure : t -> string -> unit
(** The peer failed (connect refused, timeout, bad frame).  Trips to
    open with [min max_backoff (base * 2^(failures-1))] from now; as a
    half-open probe outcome this doubles the window. *)

val state : t -> string -> state
(** Current state; an expired open window reads as [Half_open]. *)

val failures : t -> string -> int
(** Consecutive trips recorded (0 when closed and healthy). *)

val blocked_until : t -> string -> float option
(** Absolute clock time the current window expires; [None] when
    closed. *)
