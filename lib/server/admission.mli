(** The daemon's one tuning table: each fingerprint's {e flight} from
    the submit that starts it to its last waiter, fair and
    deadline-aware admission, and the worker domains that run what it
    admits — all under one lock.

    Flights: two clients asking to tune the same fingerprint share one
    exploration.  {!submit} takes the fingerprint as its [key] and, in
    one step, joins the flight already live for that key, refuses
    ([`Busy], [`Deadline]) without creating anything, or admits a new
    flight and queues its job.  Each caller holds a {!waiter}: its
    handle for reading the flight's progress and result through
    {!next}, being {!cancel}led, and {!detach}ing.  The worker that
    runs a job resolves its flight with whatever the job returned or
    raised, waking every waiter; the key is then free for a fresh
    flight.  A joiner pays none of the admission checks, since the
    tune it shares is already admitted.

    Delivery is enqueue-only: {!publish} pushes into per-waiter queues
    and each waiter drains its own queue from its own thread, so a dead
    or slow client socket can never block the job or its co-waiters.
    When the {e last} waiter detaches from an unresolved flight, the
    flight's abort flag rises ({!abort_requested}): the daemon's
    per-generation progress hook reads it and raises
    [Amos.Explore.Aborted], tearing the exploration down at that
    generation boundary.  A join before the hook notices withdraws the
    request.

    Fairness: each client key (from the connection handshake) owns a
    deficit-round-robin (DRR) backlog and a [weight], and {!take} serves
    backlogs in weight proportion — a client flooding the daemon delays
    itself, not everyone else.  Jobs have unit cost (one tune each), so
    a weight-[w] client is served [w] jobs per round; over any
    backlogged interval its share of service is within one round of
    [w / total-weight] (the DRR fairness bound pinned by the
    [props.admission] suite).

    Deadlines: {!submit} computes the queue's {!projected_wait} — the
    EWMA of recent job durations times queued + running jobs over
    worker slots — and refuses a new flight whose [deadline_ms] budget
    is already smaller than that projection ([`Deadline]), {e before}
    anything is queued.

    Worker slots, load and drain are decided here once.  After
    {!start}, worker domains come and go with the work: a submit
    spawns one when more jobs are queued than the free live workers
    can take, never more than [workers] live, and a worker that has
    waited a full {!tick} with nothing to take exits.  An idle daemon
    thus keeps no parked domain, which OCaml 5 would stop for every
    minor collection of the serving domain.  {!close} lets the workers
    finish every admitted job before joining them.  Without {!start},
    no domain is ever spawned: {!take} steps the table by hand, and
    every time read goes through the injectable [Clock], so the whole
    table is tested on a virtual clock with zero real-time waits.
    Safe across systhreads and domains (stdlib [Mutex]/[Condition]). *)

module Clock = Amos_service.Clock

type ('a, 'p) t
(** A table whose jobs resolve to ['a] and publish ['p] snapshots. *)

type ('a, 'p) flight
(** One key's tune, as its job sees it: what {!publish} and
    {!abort_requested} take. *)

type ('a, 'p) waiter
(** One caller's interest in a flight. *)

val create :
  ?alpha:float ->
  ?weight_of:(string -> int) ->
  clock:Clock.t ->
  workers:int ->
  capacity:int ->
  unit ->
  ('a, 'p) t
(** [alpha] (default 0.3) is the EWMA smoothing factor for job
    durations.  [weight_of] (default [fun _ -> 1]) assigns each client
    key its DRR weight, read once when the client's queue is created
    (values < 1 are clamped to 1).  [workers] bounds concurrently
    running jobs handed out by {!take}; [capacity] bounds the total
    queued backlog across all clients (both clamped to >= 1). *)

val submit :
  ('a, 'p) t ->
  client:string ->
  key:string ->
  ?deadline_ms:int ->
  ?streaming:bool ->
  ?request_id:int ->
  (('a, 'p) flight -> 'a) ->
  [ `Admitted of ('a, 'p) waiter
  | `Joined of ('a, 'p) waiter
  | `Busy
  | `Deadline of float ]
(** In order: once {!close} has begun, [`Busy] — joins included.  A
    live flight for [key] is joined ([`Joined]): the job passed in is
    dropped and a pending abort is withdrawn.  Otherwise a total
    backlog at capacity is [`Busy], and a [deadline_ms] below the
    projected wait [w] (seconds) is [`Deadline w]; a refusal leaves no
    flight.  Else a new flight for [key] queues the job under
    [client]'s backlog ([`Admitted]).  Requests without a deadline are
    only subject to the capacity bound.

    [streaming] (default [false]) opts the returned waiter into
    {!publish}ed snapshots; a non-streaming waiter never queues any.
    [request_id] registers the waiter for {!cancel}; a later
    registration under the same id replaces it. *)

val take : ('a, 'p) t -> (unit -> unit) option
(** Hand out the next job per DRR, or [None] when the backlog is empty
    or all [workers] slots are already running.  The returned thunk runs
    the job on its flight; run it exactly once, on any thread.  It
    never raises: what the job returns or raises resolves the flight,
    and its measured duration feeds the EWMA and releases the worker
    slot.  Work-conserving: whenever the backlog is nonempty and a slot
    is free, [take] returns a job. *)

val start : ('a, 'p) t -> unit
(** Let submits spawn worker domains, as the module doc describes;
    spawns nothing itself.  Call before the first {!submit}.  The
    spawn runs outside the table's lock, and a worker takes through
    the same DRR pick and slot accounting as {!take}.  A spawn that
    raises gives its slot back, and when that leaves no worker alive
    every queued flight resolves with the exception ([`Failed]). *)

val tick : ('a, 'p) t -> unit
(** Advance the workers' idle clock by one tick: a worker that has
    waited from before one tick until the next with nothing to take
    exits, so after two ticks with nothing queued no worker is
    {!live}.  The daemon's accept loop ticks every 0.25 s. *)

val publish : ('a, 'p) t -> ('a, 'p) flight -> 'p -> unit
(** Enqueue one progress snapshot onto every attached streaming
    waiter's queue and wake them.  Cancelled waiters get nothing. *)

val abort_requested : ('a, 'p) flight -> bool
(** Lock-free read of the flight's abort flag, raised by the last
    {!detach} from the unresolved flight and withdrawn by a join. *)

val next :
  ('a, 'p) t ->
  ('a, 'p) waiter ->
  [ `Progress of 'p | `Done of 'a | `Failed of exn | `Cancelled ]
(** Block for this waiter's next event: a queued progress snapshot
    (delivered in publish order, all of them before the result), the
    value its flight's job returned ([`Done]) or the exception it
    raised ([`Failed]), or this waiter's cancellation ([`Cancelled]
    preempts any still-queued progress).  A non-streaming waiter's
    queue is always empty, so it goes straight to the result. *)

val cancel : ('a, 'p) t -> int -> bool
(** Cancel the waiter registered latest under this request id and
    still attached, and wake it: its pending (or next) {!next} returns
    [`Cancelled].  The flight itself is untouched — co-waiters see
    nothing.  [false] when no such waiter is registered. *)

val detach : ('a, 'p) t -> ('a, 'p) waiter -> int
(** Drop a waiter from its flight and return the number of waiters
    still attached.  Detaching the last waiter from an {e unresolved}
    flight raises its abort flag.  The waiter's request id is
    unregistered only while it is still the one registered under it.
    Idempotent (repeat calls return the current count). *)

val in_flight : ('a, 'p) t -> int
(** Keys currently flying: admitted and not yet resolved. *)

val projected_wait : ('a, 'p) t -> float
(** Seconds a job admitted now is projected to wait before completing:
    EWMA x (queued + running) / workers.  [0.] until the first job
    completes (no evidence yet — depth-only admission). *)

val depth : ('a, 'p) t -> int
(** Jobs currently queued (not yet handed to {!take}). *)

val running : ('a, 'p) t -> int
(** Jobs handed out by {!take} and not yet finished. *)

val load : ('a, 'p) t -> int
(** [depth + running] — the congestion signal for the daemon's
    [Stats]. *)

val ewma : ('a, 'p) t -> float option
(** Current EWMA of job durations in seconds; [None] before the first
    completion. *)

val live : ('a, 'p) t -> int
(** Worker domains spawned (or being spawned) and not yet exited; at
    most [workers].  [0] before the first {!submit} after {!start}. *)

val close : ('a, 'p) t -> unit
(** Refuse all future {!submit}s ([`Busy]).  The backlog is kept: the
    live workers run every admitted job, then exit, and [close]
    returns once it has joined every worker ever spawned — in every
    caller, so each concurrent closer returns only after the drain.
    The table keeps at most [workers] domain handles at a time: an
    exited worker's is joined by the next spawn.  Without {!start} it
    returns at once, and {!take} still hands out the backlog. *)
