(** Sequential operator pipelines: a minimal network-execution substrate
    used to validate whole-model compilation end-to-end.

    Each tensor stage consumes the previous stage's output as its first
    input; remaining inputs (weights) are supplied per stage.  The
    pipeline can run through the reference interpreter or through
    AMOS-compiled kernels on the simulator — the two must agree, which is
    the system-level correctness check for network compilation. *)

open Amos_ir

type stage =
  | Op of Operator.t
      (** first input shape must equal the previous output shape *)
  | Relu  (** elementwise, runs on the scalar units *)

type t = {
  name : string;
  stages : stage list;
}

val create : name:string -> stage list -> t
(** Checks shape chaining; raises [Invalid_argument] on a mismatch. *)

val input_shape : t -> int list
val output_shape : t -> int list

val random_weights : Amos_tensor.Rng.t -> t -> Amos_tensor.Nd.t list list
(** Per stage, the weight tensors (everything but the chained input). *)

val run_reference :
  t -> input:Amos_tensor.Nd.t -> weights:Amos_tensor.Nd.t list list ->
  Amos_tensor.Nd.t

val run_compiled :
  Accelerator.t ->
  t ->
  input:Amos_tensor.Nd.t ->
  weights:Amos_tensor.Nd.t list list ->
  Amos_tensor.Nd.t
(** Tunes and lowers every mappable stage to the spatial units (always
    preferring them, so the lowered kernels are exercised end-to-end);
    stages without a valid mapping execute on the scalar backend. *)

val tensor_stages : t -> (int * Operator.t) list
(** The [Op] stages with their positions in [stages], in order. *)

val run_with_plans :
  Accelerator.t ->
  t ->
  plan_for:(int -> Operator.t -> (Mapping.t * Schedule.t) option) ->
  input:Amos_tensor.Nd.t ->
  weights:Amos_tensor.Nd.t list list ->
  Amos_tensor.Nd.t
(** Execute with externally supplied plans (e.g. from a plan cache):
    [plan_for idx op] is called once per tensor stage with the stage's
    position in [stages]; [Some (mapping, schedule)] lowers and runs on
    the spatial units, [None] falls back to the scalar backend.  No
    tuning happens here, so the run is bit-reproducible from the plans
    alone. *)

val mini_cnn : ?channels:int -> unit -> t
(** A small chainable CNN: conv3x3 -> relu -> conv3x3 -> relu ->
    depthwise3x3 -> pointwise 1x1. *)
