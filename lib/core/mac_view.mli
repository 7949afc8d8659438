(** Canonical multiply-accumulate view of an operator.

    MAC-style intrinsics (Tensor Core, VNNI, dot units) have exactly two
    source operands.  Operators with a single accumulated input are
    canonicalised by adding a {e virtual ones operand} over their reduction
    iterations (the standard trick for mapping reductions to matrix units,
    cf. the scan/reduction-on-Tensor-Core line of work the paper cites);
    variance-style [(a-b)^2] reductions fuse the squared difference into a
    single virtual source whose elements are computed during the register
    load.  Max-accumulation cannot be expressed as a MAC and yields
    [None]. *)

open Amos_ir

type source =
  | Tensor of { input_idx : int; acc : Operator.access }
  | Ones of Iter.t list  (** virtual all-ones operand over these iters *)
  | Diff_sq of {
      a_idx : int;
      a : Operator.access;
      b_idx : int;
      b : Operator.access;
    }  (** fused [(a - b)^2] virtual operand *)

type t = {
  op : Operator.t;
  srcs : source list;  (** always two sources *)
}

val of_operator : Operator.t -> t option
val source_uses : source -> Iter.t -> bool

val access_matrix : t -> src_perm:int array -> Bin_matrix.t
(** Software access matrix [X] with rows ordered [output ::
    srcs.(src_perm.(0)) :: srcs.(src_perm.(1))] so that row [m] aligns with
    the intrinsic's operand [m]. *)

val column : t -> src_perm:int array -> Iter.t -> bool array
(** One column of that matrix. *)

val independent : t -> Iter.t -> bool
(** The feasibility-filter notion: in every source that uses the
    iteration, it appears alone in at least one index dimension.
    Convolution window iterations are not independent. *)
