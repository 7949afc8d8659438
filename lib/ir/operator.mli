(** The software definition: tensor computations as perfectly nested loops.

    An operator is the high-level DSL object of the compilation flow
    (Fig 2 / Fig 3a of the paper): a set of iteration variables, one output
    access, one or two input accesses with affine indices, an accumulation
    arithmetic, and optional domain predicates.

    Example — 2D convolution (Fig 3a):
    {[ for {n,k,p,q} for {c,r,s}:
         out[n,k,p,q] += image[n,c,p+r,q+s] * weight[k,c,r,s] ]} *)

type access = {
  tensor : Tensor_decl.t;
  index : Affine.t list;  (** one affine expression per tensor dimension *)
}

(** Accumulation arithmetic applied at every point of the iteration domain.
    [Mul_add] needs two inputs; [Add_acc] and [Max_acc] one;
    [Sq_diff_acc] two (value and mean). *)
type arith =
  | Mul_add  (** out += a * b *)
  | Add_acc  (** out += a *)
  | Max_acc  (** out = max(out, a) *)
  | Sq_diff_acc  (** out += (a - b)^2 *)

type t = private {
  name : string;
  iters : Iter.t list;  (** canonical loop order, spatial then reduction *)
  output : access;
  inputs : access list;
  arith : arith;
  preds : Predicate.t list;
  init : float;  (** accumulator initial value *)
  post_scale : float;  (** multiplied into the output after reduction *)
}

val create :
  ?preds:Predicate.t list ->
  ?init:float ->
  ?post_scale:float ->
  name:string ->
  iters:Iter.t list ->
  output:access ->
  inputs:access list ->
  arith:arith ->
  unit ->
  t
(** Builds and checks an operator.  Raises [Invalid_argument] when: the
    input arity does not match [arith]; an access rank differs from its
    tensor rank; an index can evaluate out of bounds over the unguarded
    domain; an output index mentions a reduction iteration; or a spatial
    iteration is missing from the output. *)

val access : Tensor_decl.t -> Affine.t list -> access

val reduction_iters : t -> Iter.t list
val domain_size : t -> int
(** Product of all extents (ignores predicates). *)

val flops : t -> float
(** Arithmetic operations over the full domain: 2 per point for [Mul_add],
    1 for [Add_acc]/[Max_acc], 3 for [Sq_diff_acc].  Predicates are not
    discounted. *)

val tensors : t -> Tensor_decl.t list
(** Output tensor first, then inputs, in declaration order. *)

val uses_iter : access -> Iter.t -> bool
(** Does the iteration appear (nonzero coefficient) in any index dimension
    of this access? *)

val independent_in_sources : t -> Iter.t -> bool
(** An iteration is {e independent} when, in every input access where it
    appears, there is at least one index dimension whose affine expression
    mentions it and no other iteration.  Convolution window iterations
    ([r] in [p + r]) are not independent; channel iterations are.  Used by
    the mapping feasibility filter (DESIGN.md §5). *)

val pp : Format.formatter -> t -> unit
