(** The user-facing compilation driver (the "AMOS" entry points).

    Single operators: [mappings] enumerates the valid mapping space,
    [tune] explores mappings x schedules and returns the best measured
    plan (falling back to the scalar units when the operator cannot be
    mapped, as the paper does for ReLU / MaxPooling), [verify] checks a
    lowered plan bit-for-bit against the reference interpreter.

    Whole networks: [price_network] is the one walk over a network's
    layers — each tensor layer priced by the caller, the rest on the
    scalar units, summed with multiplicities — that reports how many
    operators reached the spatial units (the Table 2 quantity) and the
    end-to-end latency (the Fig 7 quantity).  The plan service's
    [Batch_compile.compile_network] tunes through it; the baselines
    price through it. *)

open Amos_ir

type target =
  | Spatial of Explore.plan
  | Scalar of float  (** estimated seconds on the scalar units *)

type plan = {
  op : Operator.t;
  accel : Accelerator.t;
  target : target;
}

val mappings : Accelerator.t -> Operator.t -> Mapping.t list
(** {!Explore.mappings}: the union of the valid mapping spaces of every
    intrinsic the accelerator exposes (e.g. all three WMMA shapes on
    Tensor Core). *)

val tuned_scalar_seconds : Accelerator.t -> Operator.t -> float
(** The scalar-unit roofline a spatial plan must beat: when the best
    measured plan loses to it (or nothing maps), [tune] picks the
    scalar units. *)

val decide : Accelerator.t -> Operator.t -> Explore.result option -> target
(** The one spatial-versus-scalar decision, shared by [tune] and
    [Batch_compile.tune_fresh]: [Spatial best] when the tune's best plan
    is finite and no slower than {!tuned_scalar_seconds}, else [Scalar]
    at that roofline ([None] means nothing was tuned). *)

val tune :
  ?population:int ->
  ?generations:int ->
  ?measure_top:int ->
  Accelerator.t ->
  Operator.t ->
  plan

val seconds : plan -> float
val gflops : plan -> float
val is_mapped : plan -> bool
val describe : plan -> string

val verify :
  rng:Amos_tensor.Rng.t ->
  Accelerator.t ->
  Mapping.t ->
  Schedule.t ->
  bool
(** Functional check: lower, execute on the simulator, compare with the
    reference interpreter on random inputs (tolerance 1e-4). *)

type layer_report = {
  name : string;
  mult : int;
  mapped : bool;
  layer_seconds : float;  (** one instance *)
}

type network_report = {
  network_name : string;
  total_ops : int;
  mapped_ops : int;
  network_seconds : float;  (** end-to-end, multiplicities included *)
  layers : layer_report list;
}

val mappable_count : Accelerator.t -> Amos_workloads.Networks.t -> int
(** Number of operator instances with at least one valid mapping for any
    of the accelerator's intrinsics — the "Our Mapped" column of Table 2
    (mappability, independent of whether the tuner ultimately prefers the
    spatial or the scalar plan). *)

val price_network :
  Accelerator.t ->
  (Operator.t -> bool * float) ->
  Amos_workloads.Networks.t ->
  network_report
(** The one walk over a network's layers: [price op] gives a tensor
    layer's (reached the spatial units, seconds for one instance) and is
    called once per tensor layer, in layer order; elementwise layers run
    on the scalar units.  Totals are summed in layer order. *)
