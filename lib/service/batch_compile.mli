(** Whole-network compilation through the plan service.

    Walks a network inventory (through {!Amos.Compiler.price_network})
    or an {!Amos.Graph.t}, fingerprints every tensor stage, deduplicates
    stages that are structurally identical (real networks repeat the same
    operator shape dozens of times), serves repeats and previously tuned
    operators from a {!Plan_cache}, and tunes only the genuinely new ones
    — in parallel via {!Par_tune}.  The report says how much of the
    compile was served from cache and how much wall clock went into
    tuning; a fully warm cache compiles with zero tuner evaluations.

    Failure policy: a stage whose cache lookup, tuning, or plan store
    raises never aborts the compile.  Lookup failures fall through to
    tuning; tuning failures fall back to the always-available scalar
    plan and mark the stage {!Degraded} (the fallback is never cached as
    a plan); store failures keep the tuned plan for this run and
    continue.  Degradation events are counted in the report and logged
    on the ["amos.service"] source.

    For a {e persistent} cache (one with a directory), a degradation
    additionally writes a {!Badlist} known-bad marker next to the cache:
    later cold compiles serve those stages scalar immediately
    ({!Known_bad}) instead of re-paying the failed tuning attempt.
    [cache fsck] lists the markers; clearing them re-enables tuning.
    Memory-only caches keep the old per-run behaviour. *)

open Amos

type source =
  | Hit  (** served from the cache *)
  | Tuned  (** tuned this run (and stored) *)
  | Repeat  (** duplicate of an earlier stage in the same network *)
  | Degraded
      (** tuning failed; the stage runs on the scalar fallback plan *)
  | Known_bad
      (** a persisted known-bad marker says tuning already failed for
          this fingerprint; served scalar without re-attempting *)

type stage_plan = {
  node : Graph.node_id;  (** the tensor node this plan runs *)
  op : Amos_ir.Operator.t;
  fingerprint : string;
  value : Plan_cache.value;
  source : source;
}

type report = {
  tensor_stages : int;
  unique_stages : int;  (** distinct fingerprints *)
  cache_hits : int;  (** stages served without tuning (Hit + Repeat) *)
  cache_misses : int;  (** stages that required tuning *)
  evaluations : int;  (** tuner evaluations spent *)
  tuning_seconds : float;  (** wall clock spent in the tuner *)
  degraded_stages : int;
      (** unique stages that fell back to the scalar plan because
          tuning failed *)
  known_bad_stages : int;
      (** unique stages served scalar from a persisted known-bad marker
          (no tuning attempted) *)
}

type t = {
  accel : Accelerator.t;
  graph : Graph.t;
  plans : stage_plan list;
  report : report;
}

val compile :
  ?jobs:int ->
  ?budget:Fingerprint.budget ->
  cache:Plan_cache.t ->
  Accelerator.t ->
  Graph.t ->
  t
(** Tunes every fresh tensor node of the graph, serving repeats and
    cached stages without tuning. *)

val scalar_seconds : Accelerator.t -> Amos_ir.Operator.t -> float
(** [Compiler.tuned_scalar_seconds]: the roofline spatial plans must
    beat. *)

val plan_seconds :
  Accelerator.t -> Amos_ir.Operator.t -> Plan_cache.value -> float
(** What a stored plan costs: the simulator's structural estimate of
    the lowered spatial plan (what the tuner measured), else
    {!scalar_seconds}.  The one pricing of a cached value — network
    compiles and the CLI's reports both use it. *)

val tune_fresh :
  ?seeds:Explore.candidate list ->
  ?model:Explore.screen_model ->
  ?observe:(Explore.observation -> unit) ->
  ?progress:(Explore.progress -> unit) ->
  jobs:int option ->
  budget:Fingerprint.budget ->
  Accelerator.t ->
  Amos_ir.Operator.t ->
  Plan_cache.value * int
(** The one "tune, then race the winner against the scalar roofline"
    that batch compiles, the daemon and the CLI share, bypassing the
    cache: {!Par_tune.tune} over the operator's mapping space plus
    [seeds], then {!Amos.Compiler.decide}, the race [Compiler.tune]
    runs too; with the evaluations spent (0 when nothing maps and no
    seed is given). *)

val tune_op :
  ?jobs:int ->
  ?budget:Fingerprint.budget ->
  ?model:Explore.screen_model ->
  ?observe:(fingerprint:string -> Explore.observation -> unit) ->
  cache:Plan_cache.t ->
  Accelerator.t ->
  Amos_ir.Operator.t ->
  Plan_cache.value * source
(** Single-operator entry: serve from the cache or tune and store.  The
    value races the spatial plan against the scalar roofline exactly as
    [Compiler.tune] does, so [Scalar] means the scalar units won.
    [model] installs a calibrated screen ([Explore.tune]'s contract) in
    a fresh tune; a cached stage never touches it.  [observe] receives
    each simulator measurement of a fresh tune, labelled with the
    fingerprint — the hook the learned cost model's observation log
    hangs off. *)

val compile_network :
  ?jobs:int ->
  ?budget:Fingerprint.budget ->
  cache:Plan_cache.t ->
  Accelerator.t ->
  Amos_workloads.Networks.t ->
  Compiler.network_report * report
(** A network's {!Amos.Compiler.price_network} report through the plan
    service: structurally identical layers tune once, repeats and
    warm-cache layers are free, and a spatial layer is priced by the
    simulator's estimate of its lowered plan.  With [~jobs:1] on a fresh
    memory-only cache it reports what [Compiler.tune] of every layer
    would. *)

val run :
  t ->
  input:Amos_tensor.Nd.t ->
  weights:(Graph.node_id * Amos_tensor.Nd.t list) list ->
  Amos_tensor.Nd.t
(** Execute the compiled graph on the simulator
    ({!Amos.Graph.run_with_plans}).  No tuning happens here, so results
    are bit-reproducible from the plans alone. *)

val describe_report : report -> string
