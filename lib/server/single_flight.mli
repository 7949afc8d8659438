(** Single-flight deduplication of keyed work, with per-waiter
    progress streams, cancellation and detach.

    Two clients asking the daemon to tune the same fingerprint should
    share one exploration, not run two.  The table tracks one {e flight}
    per key: the first caller to {!acquire} a key becomes the leader and
    owns producing the result (of type ['a]); everyone else joins the
    existing flight.  Each caller — leader included — holds a
    {!waiter}: its private handle for collecting the result, receiving
    ['p] progress snapshots ({!publish} / {!next}), being {!cancel}led,
    and {!detach}ing.

    Delivery is enqueue-only: {!publish} pushes into per-waiter queues
    and each waiter drains its own queue from its own connection
    thread, so a dead or slow client socket can never block the flight
    or its co-waiters.  When the {e last} attached waiter detaches from
    an unresolved flight, the flight's abort flag rises
    ({!abort_requested}) — the daemon's per-generation progress hook
    reads it and raises [Amos.Explore.Aborted], tearing the exploration
    down at that generation boundary; a fresh {!acquire} before the
    hook notices withdraws the request.

    The leader must always complete its flight — including on failure,
    abort and admission-control rejection (complete with the
    error/busy value) — or waiters block forever; lean on
    [Fun.protect].  Safe across systhreads and domains (stdlib
    [Mutex]/[Condition]). *)

type ('a, 'p) t
type ('a, 'p) flight
type ('a, 'p) waiter

val create : unit -> ('a, 'p) t

val acquire :
  ?streaming:bool ->
  ('a, 'p) t ->
  string ->
  [ `Lead of ('a, 'p) waiter | `Join of ('a, 'p) waiter ]
(** Register interest in [key].  [`Lead] means no flight existed: the
    caller owns the work and must eventually {!complete} the flight
    behind the returned waiter.  [`Join] shares a flight already in
    progress (and withdraws a pending abort request, see
    {!abort_requested}).  [streaming] (default [false]) opts this
    waiter into {!publish}ed progress snapshots; non-streaming waiters
    never queue any. *)

val flight : ('a, 'p) waiter -> ('a, 'p) flight
(** The flight a waiter is attached to — what {!complete} and
    {!publish} take. *)

val complete : ('a, 'p) t -> ('a, 'p) flight -> 'a -> unit
(** Publish the result, wake all waiters, and retire the flight (a
    subsequent {!acquire} of the same key starts a fresh one).
    Completing an already-completed flight is a no-op. *)

val publish : ('a, 'p) t -> ('a, 'p) flight -> 'p -> unit
(** Enqueue one progress snapshot onto every attached streaming
    waiter's queue and wake them.  A no-op after {!complete}. *)

val wait : ('a, 'p) t -> ('a, 'p) waiter -> [ `Done of 'a | `Cancelled ]
(** Block until the flight completes ([`Done]) or this waiter is
    cancelled, ignoring progress snapshots — the non-streaming path. *)

val next :
  ('a, 'p) t ->
  ('a, 'p) waiter ->
  [ `Progress of 'p | `Done of 'a | `Cancelled ]
(** Block for this waiter's next event: a queued progress snapshot
    (delivered in publish order, all of them before [`Done]), the
    flight's completion, or this waiter's cancellation ([`Cancelled]
    preempts any still-queued progress). *)

val cancel : ('a, 'p) t -> ('a, 'p) waiter -> unit
(** Mark one waiter cancelled and wake it: its pending (or next)
    {!wait}/{!next} returns [`Cancelled].  The flight itself is
    untouched — co-waiters see nothing.  No-op on a detached or
    already-cancelled waiter. *)

val detach : ('a, 'p) t -> ('a, 'p) waiter -> int
(** Drop a waiter from its flight and return the number of waiters
    still attached.  Detaching the last waiter from an {e unresolved}
    flight raises the flight's abort flag.  Idempotent (repeat calls
    return the current count without decrementing). *)

val abort_requested : ('a, 'p) flight -> bool
(** Lock-free read of the flight's abort flag — read by the daemon's
    progress hook once per exploration generation.  Raised by the last
    {!detach}; withdrawn by a fresh {!acquire} of the key. *)

val in_flight : ('a, 'p) t -> int
(** Number of keys currently flying. *)
