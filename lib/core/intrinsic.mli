(** Hardware intrinsics described through the hardware abstraction: a
    compute abstraction, a memory abstraction, a data type, and a cost
    (issue interval and pipeline latency in cycles).

    The presets cover the accelerators evaluated in the paper (Sec 7.1 and
    7.5): Tensor Core WMMA ([mma_sync]), the simplified 2x2x2 Tensor Core
    of the Fig 3 running example, AVX-512 VNNI ([_mm512_dpbusds_epi32]),
    the Mali Bifrost [arm_dot] unit, and the three virtual accelerators
    (AXPY, GEMV, CONV units). *)

open Amos_ir

type t = {
  name : string;
  compute : Compute_abs.t;
  memory : Memory_abs.t;
  dtype : Tensor_decl.dtype;  (** operand element type *)
  acc_dtype : Tensor_decl.dtype;  (** accumulator / output element type *)
  issue_cycles : float;
  latency_cycles : float;
}

val create :
  name:string ->
  compute:Compute_abs.t ->
  ?memory:Memory_abs.t ->
  ?dtype:Tensor_decl.dtype ->
  ?acc_dtype:Tensor_decl.dtype ->
  issue_cycles:float ->
  latency_cycles:float ->
  unit ->
  t
(** [memory] defaults to {!Memory_abs.standard} over the compute
    abstraction's operand names. *)

val mma : ?name:string -> m:int -> n:int -> k:int -> unit -> t
(** Tensor-Core-style matrix multiply-accumulate:
    Dst[i1,i2] += Src1[i1,r1] * Src2[r1,i2] with problem size [m,n,k]. *)

val wmma_16x16x16 : unit -> t
(** The Tensor Core [mma_sync] intrinsic (fp16 inputs, fp32 accumulate). *)

val wmma_32x8x16 : unit -> t
(** The 32x8x16 WMMA shape (the shape of the paper's Eq. (1) example). *)

val wmma_8x32x16 : unit -> t

val toy_mma_2x2x2 : unit -> t
(** The simplified 2x2x2 Tensor Core of the paper's running example. *)

val avx512_vnni : unit -> t
(** Dst[i1] += Src1[i1,r1] * Src2[r1], i1 in 16 lanes, r1 in 4 (int8). *)

val mali_dot4 : unit -> t
(** Dst[i1] += Src1[i1,r1] * Src2[r1], 4 lanes x 4-wide dot. *)

val axpy_unit : unit -> t
(** Dst[i1] += Src1[i1] * Src2[] (scalar second operand), i1 in 64. *)

val gemv_unit : unit -> t
(** Dst[i1] += Src1[i1,r1] * Src2[r1], 16 x 16. *)

val conv_unit : unit -> t
(** Pointwise-convolution unit:
    Dst[k,p,q] += Src1[c,p,q] * Src2[k,c], k,c in 16, p,q in 4. *)

val ascend_cube : unit -> t
(** Ascend-NPU-style cube unit: a 16x16x16 matrix MAC (int8 in, int32
    accumulate). *)

val ascend_vector : unit -> t
(** Ascend-NPU-style vector unit: 128-lane elementwise MAC with a scalar
    second operand (reductions and AXPY-like patterns map here). *)

val of_dsl :
  ?issue_cycles:float ->
  ?latency_cycles:float ->
  ?dtype:Tensor_decl.dtype ->
  name:string ->
  string ->
  (t, string) result
(** Build an intrinsic from its scalar statement in the textual DSL —
    the zero-OCaml bring-up path for new accelerators (Sec 7.5):

    {v for {i1:16, i2:16, r1:16r}:
         Dst[i1, i2] += Src1[i1, r1] * Src2[r1, i2] v}

    Every index must be a bare intrinsic iteration (or the constant [0]
    for a scalar operand); the statement must be a two-source
    multiply-accumulate.  Defaults: issue 4 cycles, latency 16. *)

val num_srcs : t -> int
val flops_per_call : t -> float
(** 2 x product of intrinsic iteration extents. *)

val pp : Format.formatter -> t -> unit
