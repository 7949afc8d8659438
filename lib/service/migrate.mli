(** Cross-accelerator plan migration.

    The hardware abstraction makes tuned plans structurally portable: a
    compute mapping valid for one intrinsic (Algorithm 1) is a strong
    seed for a sibling intrinsic with the same scalar form, and the
    physical tiling re-derives mechanically from the sibling's extents
    and capacities ([Mapping.make]).  Migration turns a plan tuned for
    accelerator A into a {e seed population} for tuning on accelerator B
    — fed to [Explore.tune ~initial_population] (or
    {!Par_tune.tune}), where seeds compete with, and never replace,
    the random candidates.

    Two paths:
    - {b direct} — B exposes an intrinsic with the same name (e.g. V100
      and A100 both expose wmma): the plan re-binds wholesale through
      [Plan_io.load], which re-runs Algorithm 1 and re-derives the
      physical tiling, so the single resulting seed is target-valid by
      construction;
    - {b structural} — no shared intrinsic name: B's mapping space is
      enumerated ([Mapping_gen.generate_op], Algorithm-1-validated by
      construction) and ranked by how much of the source plan's mapping
      structure each candidate preserves (mapped-vs-outer status of
      each software iteration, co-grouping of software iterations onto
      one intrinsic dimension, same-named dimensions when available);
      schedules re-derive from [Schedule.default] with the source's
      scalar knobs (staging depth, unroll, vectorization) carried over
      when they still validate.

    Everything is deterministic: candidate ranking breaks ties on the
    mapping description, so migration of the same plan text always emits
    the same seeds. *)

open Amos
open Amos_ir

type outcome = {
  seeds : Explore.candidate list;
      (** target-valid seed plans, best-ranked first; [[]] when nothing
          transfers (e.g. the target cannot map the operator at all) *)
  source_accel : string;
  source_fingerprint : string;
  direct : bool;  (** whole-plan re-bind vs structural transfer *)
}

val provenance : outcome -> Plan_io.provenance
(** The source a plan tuned from these seeds records when stored. *)

val migrate :
  ?max_seeds:int ->
  target:Accelerator.t ->
  op:Operator.t ->
  source_accel:string ->
  source_fingerprint:string ->
  plan_text:string ->
  unit ->
  outcome
(** Migrate one saved plan ({!Amos.Plan_io} text) onto [target].
    [max_seeds] (default 4) bounds the structural-path seed count; the
    direct path always emits exactly one seed. *)

val from_cache :
  ?max_seeds:int ->
  Plan_cache.t ->
  accel:Accelerator.t ->
  op:Operator.t ->
  budget:Fingerprint.budget ->
  outcome option
(** The cache-driven flow: find same-operator plans tuned for other
    accelerators ({!Plan_cache.lookup_migratable}), migrate the first
    source (in the lookup's deterministic order) that yields at least
    one seed.  [None] when no source migrates. *)
