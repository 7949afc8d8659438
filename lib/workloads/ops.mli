(** The operator zoo of the paper's evaluation (Sec 7.3): GMV, GMM, C1D,
    C2D, C3D, T2D, GRP, DIL, DEP, CAP, BCV, GFC, MEN, VAR, SCN — plus
    max-pooling (used by networks, inherently not mappable to MAC units).

    Convolutions take {e output} spatial sizes; the input spatial extent is
    derived as [(out-1)*stride + (window-1)*dilation + 1] (inputs are
    assumed pre-padded, see DESIGN.md).  All constructors return operators
    with canonical iteration order (spatial iterations first). *)

open Amos_ir

val gemv : ?name:string -> m:int -> k:int -> unit -> Operator.t
(** out[i] += a[i, r] * x[r] *)

val gemm : ?name:string -> m:int -> n:int -> k:int -> unit -> Operator.t
(** out[i, j] += a[i, r] * b[r, j] *)

val batched_gemm :
  ?name:string -> b:int -> m:int -> n:int -> k:int -> unit -> Operator.t
(** out[b, i, j] += a[b, i, r] * bm[b, r, j] *)

val conv1d :
  ?name:string ->
  ?stride:int ->
  n:int -> c:int -> k:int -> p:int -> r:int -> unit -> Operator.t

val conv2d :
  ?name:string ->
  ?stride:int ->
  ?dilation:int ->
  n:int -> c:int -> k:int -> p:int -> q:int -> r:int -> s:int -> unit ->
  Operator.t
(** out[n,k,p,q] += in[n, c, p*stride + r*dil, q*stride + s*dil]
                    * w[k, c, r, s] *)

val conv2d_nhwc :
  ?name:string ->
  ?stride:int ->
  n:int -> c:int -> k:int -> p:int -> q:int -> r:int -> s:int -> unit ->
  Operator.t
(** Channels-last layout: out[n,p,q,k] += in[n, p+r, q+s, c] * w[r,s,c,k].
    Same iteration structure as {!conv2d} (AMOS is layout-agnostic); only
    the memory coalescing behaviour differs. *)

val conv3d :
  ?name:string ->
  ?stride:int ->
  n:int -> c:int -> k:int -> d:int -> p:int -> q:int -> t:int -> r:int ->
  s:int -> unit -> Operator.t

val transposed_conv2d :
  ?name:string ->
  stride:int ->
  n:int -> c:int -> k:int -> p:int -> q:int -> r:int -> s:int -> unit ->
  Operator.t
(** Implemented as a stride-1 convolution over the zero-dilated input (the
    standard lowering); [p, q] are output sizes of the transposed conv. *)

val grouped_conv2d :
  ?name:string ->
  ?stride:int ->
  groups:int ->
  n:int -> c:int -> k:int -> p:int -> q:int -> r:int -> s:int -> unit ->
  Operator.t
(** [c] and [k] are per-group channel counts.
    out[n,g,k,p,q] += in[n, g, c, p+r, q+s] * w[g, k, c, r, s] *)

val dilated_conv2d :
  ?name:string ->
  dilation:int ->
  n:int -> c:int -> k:int -> p:int -> q:int -> r:int -> s:int -> unit ->
  Operator.t

val depthwise_conv2d :
  ?name:string ->
  ?stride:int ->
  n:int -> c:int -> p:int -> q:int -> r:int -> s:int -> unit -> Operator.t
(** out[n,c,p,q] += in[n, c, p+r, q+s] * w[c, r, s] *)

val capsule_conv2d :
  ?name:string ->
  n:int -> c:int -> k:int -> p:int -> q:int -> r:int -> s:int ->
  cap:int -> unit -> Operator.t
(** Matrix-capsule convolution: every (input-channel, output-channel) pair
    multiplies [cap x cap] pose matrices.
    out[n,k,p,q,u,v] += in[n,c,p+r,q+s,u,w] * wt[k,c,r,s,w,v] *)

val batched_conv2d :
  ?name:string ->
  n:int -> c:int -> k:int -> p:int -> q:int -> r:int -> s:int -> unit ->
  Operator.t
(** CondConv-style: per-sample kernels.
    out[n,k,p,q] += in[n,c,p+r,q+s] * w[n,k,c,r,s] *)

val grouped_fc :
  ?name:string -> g:int -> m:int -> k:int -> unit -> Operator.t
(** WeightNet-style grouped fully-connected:
    out[g,i] += in[g, r] * w[g, i, r] *)

val mean : ?name:string -> rows:int -> cols:int -> unit -> Operator.t
(** out[j] = (1/rows) * sum_i x[i, j] *)

val variance : ?name:string -> rows:int -> cols:int -> unit -> Operator.t
(** out[j] = (1/rows) * sum_i (x[i,j] - mu[j])^2; inputs are [x; mu]. *)

val scan : ?name:string -> n:int -> len:int -> unit -> Operator.t
(** Inclusive prefix sum: out[n, i] = sum_{j <= i} x[n, j]. *)

val maxpool2d :
  ?name:string ->
  ?stride:int ->
  n:int -> c:int -> p:int -> q:int -> r:int -> s:int -> unit -> Operator.t
(** out[n,c,p,q] = max over the window; not mappable to MAC intrinsics. *)

(** Operator kinds, for suites and reporting. *)
type kind =
  | GMV | GMM | C1D | C2D | C3D | T2D | GRP | DIL | DEP | CAP | BCV | GFC
  | MEN | VAR | SCN

val kind_name : kind -> string
val all_kinds : kind list

val kind_of_name : string -> kind
(** The kind whose {!kind_name} is [name], ignoring case.  Raises
    [Failure "unknown operator kind <name>"] for any other name. *)
