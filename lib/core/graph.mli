(** Dataflow graphs of operators: the whole-network execution substrate,
    from plain chains ({!mini_cnn}) to fan-out, residual additions, and
    channel concatenation — enough to express the ResNet/ShuffleNet-style
    blocks of the paper's network evaluation as real dataflow (not just
    operator inventories), compile every tensor node through AMOS, and
    verify the result against the reference interpreter.

    Graphs are built with the builder functions; each returns the id of
    the node it creates.  An [Op] node consumes one upstream tensor as
    the operator's first input; remaining inputs are weights supplied at
    execution time. *)

open Amos_ir

type node_id

type t

module Builder : sig
  type graph = t
  type b

  val create : unit -> b
  val input : b -> int list -> node_id
  val op : b -> Operator.t -> node_id -> node_id
  (** Checks that the upstream shape equals the operator's first-input
      shape; raises [Invalid_argument] otherwise. *)

  val add : b -> node_id -> node_id -> node_id
  (** Elementwise residual addition; shapes must match. *)

  val relu : b -> node_id -> node_id

  val concat : b -> axis:int -> node_id -> node_id -> node_id
  (** Concatenation along [axis]; other dims must match. *)

  val reshape : b -> int list -> node_id -> node_id
  (** Row-major reinterpretation; element counts must match. *)

  val permute : b -> int list -> node_id -> node_id
  (** Axis permutation (a data transpose); [perm] lists, for each output
      axis, the input axis it takes. *)

  val finish : b -> output:node_id -> graph
end

val shape_of : t -> node_id -> int list
val output_shape : t -> int list
val input_shape : t -> int list
val tensor_ops : t -> (node_id * Operator.t) list
(** The [Op] nodes with their ids, in topological order. *)

val random_weights : Amos_tensor.Rng.t -> t -> (node_id * Amos_tensor.Nd.t list) list
val run_reference :
  t ->
  input:Amos_tensor.Nd.t ->
  weights:(node_id * Amos_tensor.Nd.t list) list ->
  Amos_tensor.Nd.t

val run_with_plans :
  Accelerator.t ->
  t ->
  plan_for:(node_id -> Operator.t -> (Mapping.t * Schedule.t) option) ->
  input:Amos_tensor.Nd.t ->
  weights:(node_id * Amos_tensor.Nd.t list) list ->
  Amos_tensor.Nd.t
(** The one compiled executor: [plan_for id op] is called once per [Op]
    node, in topological order; [Some (mapping, schedule)] lowers and
    runs on the spatial units, [None] runs on the scalar backend.  No
    tuning happens here, so the run is bit-reproducible from the plans
    alone (e.g. plans served by a plan cache). *)

val run_compiled :
  Accelerator.t ->
  t ->
  input:Amos_tensor.Nd.t ->
  weights:(node_id * Amos_tensor.Nd.t list) list ->
  Amos_tensor.Nd.t
(** {!run_with_plans} over a small tune of every [Op] node that always
    prefers the spatial units when any mapping is valid, so the lowered
    kernels are exercised end-to-end; the rest run on the scalar
    units. *)

val mini_cnn : ?channels:int -> unit -> t
(** A small chain: conv3x3 -> relu -> conv3x3 -> relu -> depthwise3x3 ->
    pointwise 1x1, on a [2; 3; 10; 10] input. *)

val residual_block : ?channels:int -> ?hw:int -> unit -> t
(** x -> 1x1 conv -> relu -> 1x1 conv -> (+x) -> relu: a ResNet-style
    residual block (1x1 so shapes are preserved without padding). *)

val branch_block : ?channels:int -> ?hw:int -> unit -> t
(** Two parallel 1x1 convolution branches concatenated along the channel
    axis (Inception/ShuffleNet-style fan-out + merge). *)

val shufflenet_unit : ?groups:int -> ?channels_per_group:int -> ?hw:int -> unit -> t
(** A full ShuffleNet unit: grouped 1x1 conv -> relu -> channel shuffle
    (permute + reshape) -> 3x3 depthwise (stride 1, spatial size kept by
    using the pre-grown input) -> grouped 1x1 conv -> residual add ->
    relu.  Exercises every node kind plus the two operator classes the
    libraries cannot map (Table 2's ShuffleNet row). *)
