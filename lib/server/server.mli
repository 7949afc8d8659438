(** The plan-serving daemon ([amosd]).

    One process owns the plan cache and serves tuning over a
    Unix-domain socket so that N concurrent compiler clients share one
    tuner instead of racing N: requests arrive as {!Protocol} frames on
    per-connection systhreads, tuning work lives in {!Admission}, whose
    worker domains run it, and results flow back through three
    layers —

    - a bounded in-memory {e hot cache} of recently served plans (no
      disk, no validation cost on a repeat hit), scored by the cache
      economy ({!Hot_cache}): eviction removes the plan whose loss
      would cost the least tuning time per byte;
    - the shared persistent {!Amos_service.Plan_cache} (mutex-guarded:
      a cache handle is owned by one domain at a time);
    - {e single-flight} tuning: concurrent requests for the same
      fingerprint share one exploration, so a herd of identical cold
      requests costs one tune.

    {!Admission} is the daemon's one tuning table: it owns each tune
    from the submit that starts it to its last waiter.  A tune request
    joins the fingerprint's live flight, or is refused without creating
    one, or starts one whose job queues under per-client
    deficit-round-robin backlogs (peers share one weighted key, each
    local connection gets its own), so one flooding client delays
    itself, not everyone.  When the backlog is at capacity, or the
    daemon is draining, the request is refused with a typed [Busy]
    carrying a retry hint (0.1 s plus 0.05 s per queued or running
    tune); when its [deadline_ms] is below the projected queue wait it
    is refused with a typed [Deadline_hint] {e before} being enqueued.
    The daemon never queues unboundedly and never hangs a client.

    Streaming: a request whose envelope sets [accept_stream] receives
    interleaved [Progress_r] frames (one per exploration generation)
    before the final reply; clients that never opt in see byte-for-byte
    the old exchange.  A [Cancel] naming the request id detaches that
    one waiter, the latest registered under the id (its stream ends
    with [Cancelled_r]); the shared flight
    keeps running for co-waiters, and only when the {e last} waiter
    detaches does the exploration abort at its next generation
    boundary.

    Shutdown (the [Shutdown] request, or {!stop}) is graceful: the
    daemon stops admitting tuning work, lets the workers drain the
    admission queue (every admitted exploration completes and its
    waiters get real answers), acknowledges, and only then releases the
    socket.

    [Compile] requests run on the connection thread with their own
    cache handle over the same directory (handles observe each other
    through the journal), so a long network compile never blocks the
    tuning workers.

    A [Lookup], [Tune] or [Migrate_tune] is first resolved to its
    accelerator, operator and fingerprint.  The daemon memoizes that per
    (accelerator name, op spec, budget), so a repeated spec skips
    {!Amos.Accelerator.by_name}, parsing and fingerprinting.  The memo
    admits the first 512 distinct specs and never evicts; a spec that
    fails to resolve is never memoized.  Each preset name is built once,
    so every entry shares one accelerator value.

    When the tuning queue is idle, the accept loop spends spare slots
    re-tuning {e quarantined} fingerprints (corrupt entries fsck set
    aside) whose specification a client request has taught it — see
    {!drain_quarantined_once}. *)

type config = {
  socket_path : string option;
      (** Unix-domain socket: the local trusted path, no handshake *)
  tcp : (string * int) option;
      (** TCP listener as [(bind host, port)]; port 0 binds an
          ephemeral port (see {!tcp_port}).  Every TCP connection must
          open with a {!Protocol.hello} handshake. *)
  auth_token : string option;
      (** shared fleet token TCP hellos must present ([None] accepts
          only an empty token, the client default); compared in
          constant time *)
  handshake_timeout_s : float;
      (** receive deadline for the hello frame, so an unauthenticated
          connection cannot hold an accept slot open *)
  cache_dir : string option;
      (** [None] = memory-only (plans survive only as long as the
          daemon) *)
  workers : int;
      (** domains that take tunes from the admission queue (min 1) *)
  queue_capacity : int;  (** pending tunes admitted before [Busy] *)
  jobs : int;  (** parallel jobs inside one tuning task *)
  hot_capacity : int;  (** hot-cache entries (scored eviction) *)
  hot_max_bytes : int option;  (** hot-cache byte budget *)
  max_bytes : int option;  (** persistent-cache byte budget *)
  max_tuning_seconds : float option;
      (** persistent-cache tuning-seconds budget *)
  io_timeout_s : float;
      (** per-connection [SO_SNDTIMEO]: how long a reply may block on a
          client that stopped draining before the connection is dropped *)
  net : Net_io.t;
      (** mediates every byte the daemon reads or writes on accepted
          connections, so network faults are injectable
          ({!Net_io.of_env} wires the [AMOS_NET_*] environment in) *)
}

val default_config : socket_path:string -> config
(** Unix socket only (no TCP, no token, 5 s handshake deadline),
    2 workers, queue capacity 8, 1 job per tune, 128 hot entries,
    memory-only cache, unlimited byte / tuning-seconds budgets, 30 s
    send timeout, pass-through {!Net_io.default}. *)

type route = [ `Local | `Reply of Protocol.response | `Fallback of string ]
(** What the fleet router decided for a locally-missed request:
    [`Local] — this daemon owns the fingerprint (or there is no fleet);
    [`Reply r] — the owning peer answered [r];
    [`Fallback reason] — the owner is unreachable or backing off, take
    the local path.  Structural, so [Amos_fleet] can implement it
    without a dependency cycle. *)

type router =
  fingerprint:string -> deadline_ms:int option -> Protocol.request -> route
(** Consulted after both the hot cache and the plan cache miss, and
    never for requests that already arrived from a peer (fleet routing
    is bounded to one hop).  A [`Reply (Plan_r _)] is re-admitted into
    the hot cache and served with source ["peer"]; any other peer
    answer degrades to the local path — an owner being down is never a
    client-visible error.

    [deadline_ms] is the {e remaining} budget for the hop: when the
    request envelope carried a deadline, the daemon has already
    subtracted its own elapsed time plus a forwarding margin, so the
    peer always observes strictly less budget than the client sent.  A
    budget too small to pay for a useful hop never reaches the router —
    the daemon falls back to local tuning and counts a
    [budget_fallbacks]. *)

type tune_outcome = {
  value : Amos_service.Plan_cache.value;
  evaluations : int;
}

type tuner =
  jobs:int ->
  accel:Amos.Accelerator.t ->
  op:Amos_ir.Operator.t ->
  budget:Amos_service.Fingerprint.budget ->
  seeds:Amos.Explore.candidate list ->
  progress:(Amos.Explore.progress -> unit) option ->
  tune_outcome
(** The exploration a queued tuning task runs.  Injectable so tests can observe
    scheduling behaviour (count invocations, block on a latch) without
    paying for real tuning; the default is
    [Amos_service.Batch_compile.tune_fresh], the same tune-and-race a
    batch compile runs.

    [progress] (when [Some]) must be invoked once per exploration
    generation with the aggregated best-so-far — the daemon fans it out
    to streaming waiters.  Once every waiter has walked away, the call
    raises [Amos.Explore.Aborted] instead; the tuner lets it escape
    rather than finishing (the daemon then resolves the flight as busy).
    A quarantine retune passes [None].  Custom test tuners are free to
    ignore it.

    With a persistent cache directory and no custom tuner, the default
    additionally feeds the learned cost model: every simulator
    measurement is appended to [Amos_learn.Obs_log] (the
    [observations.log] next to the plans), and when a fitted
    [model.amos] file is present in the directory — written by
    [amos model fit] — its calibrated screen is applied to every tune
    (loaded per tune, so refitting takes effect without a restart). *)

val resolve_op : Protocol.op_spec -> Amos_ir.Operator.t
(** The operator a wire spec names: a ResNet-18 layer label (any case),
    the [index]-th suite configuration of an operator kind at [batch], or
    DSL text.  Raises [Failure] for an unknown label or kind, an index
    outside the kind's configurations (negative included), or DSL that
    does not parse.  The daemon and [amos_cli fleet fingerprint] both
    resolve through it, so they agree on every fingerprint. *)

type t

val create :
  ?tuner:tuner -> ?clock:Amos_service.Clock.t -> ?router:router -> config -> t
(** Bind the configured listeners, then start the tuning workers.  Raises
    [Unix.Unix_error] when an endpoint is unusable (a stale socket file
    is silently replaced), [Invalid_argument] when the config names no
    listener at all.  [clock] (default {!Amos_service.Clock.real})
    drives the uptime, both cache layers' access stamps, and tune
    timing — tests pass a virtual clock to pin age-dependent eviction
    without sleeping. *)

val set_router : t -> router -> unit
(** Install (or replace) the fleet router after creation — the usual
    order when the ring must contain this daemon's own bound TCP port,
    which {!create} chose.  Safe before or during {!serve}. *)

val tcp_port : t -> int option
(** The bound TCP port ([Some] even when the config asked for port 0),
    [None] when no TCP listener is configured. *)

val serve : t -> unit
(** Run the accept loop until shutdown; returns after the socket is
    released and every connection thread has finished.  Run it on a
    dedicated thread for in-process use (tests, bench). *)

val stop : t -> unit
(** Programmatic graceful shutdown: drain and stop.  Idempotent; safe
    from any thread but a tuning worker's, and every caller returns
    only after the drain. *)

val stats : t -> Protocol.server_stats
(** Snapshot, same data a [Stats] request returns. *)

val drain_quarantined_once : t -> bool
(** One step of the background quarantine drain, normally invoked from
    the accept loop's idle ticks: when the tuning queue is idle, pick
    the lexicographically first {!Amos_service.Plan_cache.quarantined}
    fingerprint whose operator specification the daemon has seen (an
    earlier [Tune]/[Lookup] spec held in the request memo) and queue a
    re-tune; the quarantine file is removed only after the fresh plan is
    stored.  Returns [false] when no re-tune was queued — no cache
    directory, the daemon is stopping or the queue is busy (the drain
    never delays client work), or no quarantined fingerprint is
    actionable.  Exposed for deterministic tests. *)
