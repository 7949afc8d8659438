(** Template-based compiler baselines (AutoTVM / UNIT / Ansor emulation,
    Sec 7.3): one fixed hand-written mapping template plus schedule-only
    tuning; a layout restriction can make the template fail to match
    entirely (AutoTVM's NHWC-only Tensor Core templates), in which case
    the compiler falls back to scalar code.

    [`Ansor] has no Tensor Core generation rules at all: it searches
    schedules for the scalar units only (with a better-optimized scalar
    efficiency than naive code). *)

open Amos_ir

type template =
  | Im2col  (** AutoTVM-Expert-style *)
  | Fuse_hw  (** UNIT-style: ignores the batch dimension *)
  | Ansor  (** no spatial intrinsics; tuned scalar code *)

val op_seconds :
  ?require_extent_mult:int ->
  template:template ->
  Amos.Accelerator.t ->
  Operator.t ->
  float
(** [require_extent_mult] (e.g. 16) emulates fragile layout patterns:
    the template only matches when every mapped fused extent is a
    multiple of it. *)

val network_seconds :
  ?require_extent_mult:int ->
  template:template ->
  Amos.Accelerator.t ->
  Amos_workloads.Networks.t ->
  float
