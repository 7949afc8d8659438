(** Domain-parallel mapping x schedule exploration.

    {!Amos.Explore.tune_on}, the one two-phase search, on a fan-out of
    OCaml 5 domains: each phase's work units (one mapping's screen, one
    survivor's search) run on {!parallel_map_result}.  The skeleton's
    determinism carries over: while the operator has at least as many
    mappings as [jobs], the result is the same for any [jobs] and at
    [jobs = 1] is bit-identical to [Explore.tune].  Below that the
    skeleton splits each survivor's population into shards, which is
    deterministic per [jobs] but may pick another plan at another
    [jobs].

    Failure isolation: every work unit's outcome is captured as a
    [Result] inside its worker and retried once, so one raising mapping
    can neither kill a worker domain, leak unjoined domains (joins run
    in a [Fun.protect] finalizer), nor discard the plans its siblings
    found.  Per-mapping failures surface in [Explore.result.failures]. *)

open Amos

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], capped at 8. *)

val parallel_map_result :
  jobs:int -> ('a -> 'b) -> 'a array -> ('b, exn) result array
(** Order-preserving parallel map with per-task failure capture and one
    retry.  A task failing with [Explore.Aborted] is not retried, and no
    task starts once its failure is recorded: the slots of tasks that
    never ran read [Error (Failure _)].  All spawned domains are joined
    before this returns, on every exit path. *)

val tune :
  ?jobs:int ->
  ?population:int ->
  ?generations:int ->
  ?measure_top:int ->
  ?initial_population:Explore.candidate list ->
  ?model:Explore.screen_model ->
  ?observe:(Explore.observation -> unit) ->
  ?progress:(Explore.progress -> unit) ->
  accel:Accelerator.t ->
  mappings:Mapping.t list ->
  unit ->
  Explore.result
(** [Explore.tune]'s contract on [jobs] domains ({!default_jobs} when
    absent).  Mappings whose work unit raises (twice) are dropped and
    reported in [failures]; raises [Failure] only when {e every}
    mapping failed, and [Invalid_argument] — immediately, never via the
    retry path — when both [mappings] and [initial_population] are
    empty.

    [model], [observe] and [progress] reach every worker domain as in
    [Explore.tune_on]: [observe] and [progress] fire under one lock, so
    a single-threaded consumer (appending to [Amos_learn.Obs_log], a
    daemon's progress fan-out) is safe as-is, though the order of
    observations across domains follows their scheduling.  Once a
    work unit fails with [Explore.Aborted] (raised by [progress]), no
    further unit starts; the exception re-raises out of [tune] after
    all domains joined, never as a per-mapping failure. *)

val tune_with :
  ?jobs:int ->
  screen:(Mapping.t -> float * int) ->
  search:
    (Mapping.t -> score:float -> best_score:float -> Explore.plan list * int) ->
  mappings:Mapping.t list ->
  unit ->
  Explore.result
(** [Explore.tune_units] on [jobs] domains: the skeleton of {!tune}
    with the two per-mapping work units supplied by the caller, no
    population split, no seeded mappings and no survivor cut.  Each
    search call receives the survivor's own screen [score] and the
    [best_score] among all survivors (see [Explore.unband]).  A work
    unit failing with [Explore.Aborted] re-raises after all domains
    joined instead of being recorded.  Raises [Invalid_argument] when
    [mappings] is empty.  Exposed so the failure-isolation contract is
    directly testable with units that raise on demand. *)
