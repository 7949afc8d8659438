(** Joint exploration of mappings and schedules (Sec 5.3).

    A genetic tuner over (mapping, schedule) candidates: the analytical
    model ({!Perf_model}) screens every candidate cheaply; the survivors
    of each generation are mutated and crossed over; finally the best
    model-ranked candidates are measured on the structural simulator and
    the best measured plan wins — mirroring the paper's
    model-plus-tuning flow.

    [rank_metrics] computes the pairwise (rank) accuracy and top-k recall
    between model predictions and measurements used in the Fig 5 model
    validation. *)

type candidate = {
  mapping : Mapping.t;
  schedule : Schedule.t;
}

type plan = {
  candidate : candidate;
  predicted : float;  (** model seconds *)
  measured : float;  (** simulator seconds *)
}

type result = {
  best : plan;
  evaluations : int;
  history : (float * float) list;
      (** (predicted, measured) per explored candidate, in order *)
  failures : (string * string) list;
      (** per-mapping search errors, as ([Mapping.describe], error
          message) pairs: a raising work unit loses that mapping only —
          the siblings' plans still compete for [best] *)
}

type screen_model = {
  sm_correct : Spatial_sim.Kernel.summary -> float -> float;
      (** [sm_correct summary predicted] returns the corrected predicted
          seconds; applied to every model evaluation during screening
          and genetic ranking.  The identity correction must return its
          input bit-for-bit (see [Amos_learn.Calibrate.identity]). *)
  sm_measure_cut : float option;
      (** when set (>= 1.), each mapping's measured set keeps the
          best-ranked schedule plus one representative per
          corrected-prediction band of this relative width, never beyond
          the ratio of the mapping's best: a converged population
          re-proposes schedules the model cannot distinguish, and one
          simulator run per band is enough.  The best schedule and every
          seed are always measured.  [None] measures the full
          [measure_top]. *)
  sm_survivor_cut : float option;
      (** when set (>= 1.), mappings whose corrected screen score
          exceeds this ratio of the best survivor's skip the genetic
          search entirely — the best survivor and seeded mappings always
          stay.  [None] keeps the default survivor set. *)
}
(** A calibrated screen (see [Amos_learn]): corrects the analytic
    model's predictions and optionally prunes the simulator-measured
    sets.  With the identity correction and both cuts [None], every
    result field is bit-identical to running without a model. *)

type observation = {
  ob_summary : Spatial_sim.Kernel.summary;  (** what the model screened *)
  ob_predicted : float;
      (** {e uncorrected} analytic prediction (seconds) — calibration
          fits the model-vs-simulator gap, never its own output *)
  ob_measured : float;  (** simulator seconds *)
}
(** One simulator measurement, reported through [?observe] as it
    happens.  The callback is a pure side channel: it cannot perturb
    the RNG streams, rankings or results, which is what lets every
    tuning run feed the observation log for free. *)

exception Aborted
(** The way to stop an exploration: a per-generation hook ([?progress]
    on {!tune}, [?tick] on {!search_mapping}) raises it at a generation
    boundary of the genetic search.  It escapes the per-mapping failure
    containment: an aborted exploration has no result at all. *)

type progress = {
  pr_generation : int;  (** genetic generations completed so far *)
  pr_best_predicted : float;
      (** best (model-corrected) predicted seconds so far; [infinity]
          before the first generation ranks *)
  pr_best_measured : float;
      (** best simulator seconds so far; [infinity] before the first
          measurement *)
  pr_evaluations : int;
      (** model evaluations spent so far: the screen's, the exact
          counts of finished searches, and a live [population] per
          completed generation of searches still running *)
}
(** One per-generation snapshot of an in-flight exploration, reported
    through [?progress].  Like {!observation}, a pure side channel,
    except that the hook may raise {!Aborted} to stop the
    exploration. *)

type fanout = {
  workers : int;  (** work units run at once *)
  map : 'a 'b. ('a -> 'b) -> 'a array -> ('b, exn) Stdlib.result array;
      (** apply a unit to every input, capturing each outcome in input
          order; once a unit fails with {!Aborted}, units not yet
          started need not run *)
}
(** How the two-phase search runs each phase's independent work units:
    one after another in {!tune}, on OCaml 5 domains in
    [Amos_service.Par_tune], so this library stays free of domains. *)

val tune :
  ?population:int ->
  ?generations:int ->
  ?measure_top:int ->
  ?initial_population:candidate list ->
  ?model:screen_model ->
  ?observe:(observation -> unit) ->
  ?progress:(progress -> unit) ->
  accel:Accelerator.t ->
  mappings:Mapping.t list ->
  unit ->
  result
(** Two-phase search: every mapping is screened by the model with a
    handful of schedules; the best dozen by screen score plus the four
    highest-utilization mappings each receive a full genetic schedule
    search with the given [population] x [generations] budget (what a
    template compiler spends on its one hand-written mapping); the
    [measure_top] best schedules per mapping are measured on the
    simulator.

    [initial_population] seeds the search with known-good plans (e.g.
    plans migrated from a sibling accelerator, see
    [Amos_service.Migrate]): a seed joins the space mapping with its
    structural key ({!mapping_key}), or joins the space as a new
    mapping when none has it; seeded mappings always earn a full
    schedule search, seed schedules join that mapping's genetic initial
    population, and every seed is measured — so seeds {e compete with}
    the random candidates and the result is never worse than the best
    seed, but a seed never displaces a random candidate from the
    budget.  A tune without seeds computes no key.

    Raises [Invalid_argument] when both [mappings] and
    [initial_population] are empty, or no candidate is feasible.

    Evaluation is allocation-lean: the schedule-independent half of
    lowering is prepared once per mapping ({!Codegen.prepare}), a
    genetic search memoizes predicted seconds per schedule, perf-model
    config constants are hoisted ({!Perf_model.context}), schedules are
    drawn from a precomputed {!Schedule.space}, and screening reads
    {!Codegen.summarize_prepared} instead of building kernels.  The test
    suite checks that the result — best plan, history, evaluation
    counts — is bit-identical to a reference that lowers every
    candidate in full, across seeds and accelerators.

    [model] installs a calibrated screen ({!screen_model}): every
    analytic prediction is corrected before ranking, and the optional
    cuts prune the simulator-measured sets.  [observe] is called once
    per simulator measurement with the {!observation} it produced.

    [progress] is called once per completed genetic generation with the
    aggregated {!progress} snapshot; raising {!Aborted} from it stops
    the whole exploration, which then raises {!Aborted} itself.  While
    it returns normally it affects no result.

    [tune] is {!tune_on} with a sequential fan-out: no retry, and
    {!Aborted} escapes at once. *)

val tune_on :
  fanout ->
  ?population:int ->
  ?generations:int ->
  ?measure_top:int ->
  ?initial_population:candidate list ->
  ?model:screen_model ->
  ?observe:(observation -> unit) ->
  ?progress:(progress -> unit) ->
  accel:Accelerator.t ->
  mappings:Mapping.t list ->
  unit ->
  result
(** The one two-phase search, on any fan-out.  Every work unit (one
    mapping's screen, one survivor's search) draws its RNG stream from
    {!mapping_seed} and both phases merge in input order, so the result
    is the same on every fan-out while there are at least as many
    mappings as [workers].  Below that each survivor's search splits
    into [workers / survivors] shards, shard [i] with salt [i] and a
    slice of [population] (seeds join shard 0): deterministic per
    [workers], but another [workers] may pick another plan.  No caller
    RNG is read: the budget and the mappings fix the result.

    [progress] and [observe] fire under one lock, so a single-threaded
    consumer is safe on any fan-out.  [pr_evaluations] never decreases
    and ends within the result's [evaluations].  An {!Aborted} from any
    unit tears the whole exploration down, never recorded as a
    failure. *)

val tune_units :
  fanout ->
  must_keep:(Mapping.t -> bool) ->
  cut:float option ->
  screen:(Mapping.t -> float * int) ->
  search:(Mapping.t -> score:float -> best_score:float -> plan list * int) ->
  Mapping.t list ->
  result
(** {!tune_on}'s skeleton over caller-supplied work units, without the
    population split: [screen] every mapping, keep the survivors (the
    best dozen by score, the four highest-utilization fusions and every
    [must_keep] mapping, less those beyond [cut] x the best score), and
    [search] each with its own [score] and the survivors' [best_score].
    A raising unit is reported in [failures]; raises [Invalid_argument]
    when no plan is feasible and [Failure] when every mapping failed. *)

val mappings : Accelerator.t -> Amos_ir.Operator.t -> Mapping.t list
(** An operator's mapping space: the union of the feasible mappings
    ({!Mapping_gen.generate_op}) of every intrinsic the accelerator
    exposes (intrinsic selection is part of the search). *)

val tune_op :
  ?population:int ->
  ?generations:int ->
  ?measure_top:int ->
  ?model:screen_model ->
  ?observe:(observation -> unit) ->
  accel:Accelerator.t ->
  Amos_ir.Operator.t ->
  result option
(** Tunes the operator's {!mappings}; [None] when it has none. *)

(** {2 Work units}

    The per-mapping units the skeleton fans out.  Each derives its RNG
    stream from {!mapping_seed}, so the units are independent and
    deterministic. *)

val mapping_seed : Mapping.t -> int
(** Stable seed of a mapping's schedule-search stream: a hash of the
    mapping structure, independent of surrounding mappings, callers and
    workers. *)

val mapping_key : Mapping.t -> string * string
(** Structural identity of a mapping (description, intrinsic name):
    stable across separately constructed but structurally equal mappings,
    unlike the physical identity of the [Iter.t] ids inside. *)

val screen_mapping :
  ?model:screen_model -> accel:Accelerator.t -> Mapping.t -> float * int
(** Phase-1 unit: best predicted seconds of the default plus a few
    random schedules, and the number of model evaluations spent.
    [model] as in {!tune} (the returned score is corrected when a model
    is given). *)

val unband :
  ?model:screen_model -> best:float -> float -> screen_model option
(** [unband ?model ~best score] — the screen model a survivor with
    screen score [score] should search under, given the best survivor
    score [best]: the best-scored survivor(s) (ties included) lose the
    [sm_measure_cut] band and measure their full [measure_top], because
    the winning plan most often lives in the top-ranked mapping and the
    simulator must not be spared right there.  Every other survivor,
    and any model without a band, passes through unchanged. *)

val search_mapping :
  ?salt:int ->
  ?seeds:Schedule.t list ->
  ?model:screen_model ->
  ?observe:(observation -> unit) ->
  ?tick:(float -> unit) ->
  population:int ->
  generations:int ->
  measure_top:int ->
  accel:Accelerator.t ->
  Mapping.t ->
  plan list * int
(** Phase-2 unit: genetic schedule search over one mapping; returns the
    [measure_top] best plans (model rank order, simulator-measured) and
    the evaluations spent.  [seeds] (schedules valid for this mapping;
    invalid ones are dropped) join the initial genetic population and are
    additionally always measured.  [salt] (default 0) selects an
    independent deterministic RNG stream over the same mapping — shard
    [i] of a genetic population split across parallel workers passes
    [~salt:i]; salt 0 is bit-identical to the pre-salt behaviour.
    [model] / [observe] as in {!tune}: the model corrects the genetic
    ranking and its [sm_measure_cut] prunes the measured set; [observe]
    fires once per simulator measurement.  [tick] fires once per
    completed generation, before the next is bred, with that
    generation's best predicted seconds; an {!Aborted} it raises
    escapes the search. *)

val sample :
  n:int ->
  rng:Amos_tensor.Rng.t ->
  accel:Accelerator.t ->
  mappings:Mapping.t list ->
  (float * float) list
(** [n] random candidates, each both predicted and measured — the raw data
    of the Fig 5 model-validation experiment. *)

val trajectory : flops:float -> (float * float) list -> (int * float) list
(** Best-so-far measured GFLOPS after each exploration step, from a
    (predicted, measured seconds) history — the blue curve of Fig 5. *)

val pairwise_accuracy : (float * float) list -> float
(** Fraction of candidate pairs whose model order matches the measured
    order (0.5 = chance). *)

val topk_recall : top_rate:float -> (float * float) list -> float
(** Of the true top-[top_rate] fraction (by measurement), how many the
    model also places in its own top fraction. *)
