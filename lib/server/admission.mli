(** The daemon's one tuning queue: fair, deadline-aware admission and
    the worker domains that run what it admits.

    Each client key (from the connection handshake) owns a
    deficit-round-robin (DRR) backlog and a [weight], and {!take}
    serves backlogs in weight proportion — a client flooding the
    daemon delays itself, not everyone else.  Tasks have unit cost
    (one tune each), so a weight-[w] client is served [w] tasks per
    round; over any backlogged interval its share of service is within
    one round of [w / total-weight] (the DRR fairness bound pinned by
    the [props.admission] suite).

    Admission is deadline-aware: {!submit} computes the queue's
    {!projected_wait} — the EWMA of recent task durations times queued
    + running tasks over worker slots — and refuses a request whose
    [deadline_ms] budget is already smaller than that projection
    ([`Deadline]), {e before} it is enqueued.

    Worker slots, load and drain are decided here once: {!start}
    spawns [workers] domains that take through the same DRR pick and
    slot accounting as {!take}, and {!close} lets them finish every
    admitted task before joining them.  Without {!start}, {!take} steps
    the scheduler by hand, and every time read goes through the
    injectable [Clock], so the whole scheduler is tested on a virtual
    clock with zero real-time waits. *)

module Clock = Amos_service.Clock

type t

val create :
  ?alpha:float ->
  ?weight_of:(string -> int) ->
  clock:Clock.t ->
  workers:int ->
  capacity:int ->
  unit ->
  t
(** [alpha] (default 0.3) is the EWMA smoothing factor for task
    durations.  [weight_of] (default [fun _ -> 1]) assigns each client
    key its DRR weight, read once when the client's queue is created
    (values < 1 are clamped to 1).  [workers] bounds concurrently
    running tasks handed out by {!take}; [capacity] bounds the total
    queued backlog across all clients (both clamped to >= 1). *)

val submit :
  t ->
  client:string ->
  ?deadline_ms:int ->
  (unit -> unit) ->
  [ `Admitted | `Busy | `Deadline of float ]
(** Enqueue a task under [client]'s backlog.  [`Busy] when the total
    backlog is at capacity (or the queue is {!close}d); [`Deadline w]
    when [deadline_ms] is below the projected wait [w] (seconds) — the
    task was {e never} enqueued.  Requests without a deadline are only
    subject to the capacity bound. *)

val take : t -> (unit -> unit) option
(** Hand out the next task per DRR, or [None] when the backlog is
    empty or all [workers] slots are already running.  The returned
    thunk wraps the submitted task with duration accounting: run it
    (exactly once, on any thread) and its measured duration feeds the
    EWMA and releases the worker slot, even if the task raises.
    Work-conserving: whenever the backlog is nonempty and a slot is
    free, [take] returns a task. *)

val start : t -> unit
(** Spawn [workers] domains, each blocking until {!take} would hand it
    a task, running it, and taking again, until {!close}.  Tasks own
    their error handling: an escaping exception is swallowed (it would
    kill a worker), so deliver results through the closure.  Call at
    most once. *)

val projected_wait : t -> float
(** Seconds a task admitted now is projected to wait before
    completing: EWMA x (queued + running) / workers.  [0.] until the
    first task completes (no evidence yet — depth-only admission). *)

val depth : t -> int
(** Tasks currently queued (not yet handed to {!take}). *)

val running : t -> int
(** Tasks handed out by {!take} and not yet finished. *)

val load : t -> int
(** [depth + running] — the congestion signal for the daemon's
    [Stats]. *)

val ewma : t -> float option
(** Current EWMA of task durations in seconds; [None] before the first
    completion. *)

val close : t -> unit
(** Refuse all future {!submit}s ([`Busy]).  The backlog is kept: the
    {!start}ed workers run every admitted task, then exit, and [close]
    returns once it has joined them — in every caller, so each
    concurrent closer returns only after the drain.  Without started
    workers it returns at once, and {!take} still hands out the
    backlog. *)
