(** Iteration matching between software iterations and intrinsic
    iterations (Fig 3d / Fig 4), and the mapping-validation algorithm
    (Algorithm 1).

    A matching assigns each software iteration to at most one intrinsic
    iteration; unassigned iterations become outer loops.  [src_perm]
    records which software source operand plays the role of each intrinsic
    source operand (the operand correspondence is part of the mapping). *)

open Amos_ir

type t = {
  view : Mac_view.t;
  intr : Intrinsic.t;
  src_perm : int array;  (** intrinsic source m takes view source
                             [src_perm.(m)] *)
  assign : Iter.t option array;  (** per software iteration, in op order *)
}

val create :
  view:Mac_view.t ->
  intr:Intrinsic.t ->
  src_perm:int array ->
  assign:Iter.t option array ->
  t
(** Checks array lengths and that assigned targets are intrinsic
    iterations; raises [Invalid_argument] otherwise. *)

val mapped : t -> (Iter.t * Iter.t) list
(** (software iteration, intrinsic iteration) pairs, in op order. *)

val outer : t -> Iter.t list
(** Unassigned software iterations, in op order. *)

val sw_iters_of : t -> Iter.t -> Iter.t list
(** Software iterations assigned to one intrinsic iteration, in op order. *)

val used_intrinsic_iters : t -> Iter.t list

val matrices : t -> Bin_matrix.t * Bin_matrix.t * Bin_matrix.t
(** [(x, y, z)]: the software access matrix restricted to mapped
    iterations (rows aligned with intrinsic operands via [src_perm]), the
    matching matrix, and the intrinsic access matrix restricted to used
    intrinsic iterations — the inputs of Algorithm 1. *)

val validate : t -> bool
(** Algorithm 1 verbatim: [X' := Z # Y; Z' := X # transpose Y;
    return X' = X && Z' = Z] where [#] is the boolean matrix product. *)

type workspace
(** Preallocated scratch matrices plus a validation memo, reused across the
    candidates of a generation loop so steady-state validation allocates
    O(1) new words.  Not domain-safe: one workspace per search. *)

val workspace : unit -> workspace

val validate_ws : workspace -> t -> bool
(** Same verdict as {!validate}, computed through the workspace's scratch
    buffers and memoized on the packed (X, Y, Z) words — candidates sharing
    Y structure and access pattern skip the boolean products entirely. *)

val feasible : t -> bool
(** The documented feasibility filter (DESIGN.md §5): every used reduction
    intrinsic dimension receives either at least two software iterations
    or a single {e independent} one. *)

val explain : t -> string
(** A human-readable Algorithm-1 report: the X, Y, Z matrices, the
    computed X' and Z', and the verdict — the validation trace a user
    sees when asking why a mapping was accepted or rejected. *)

val describe : t -> string
(** Table-5-style compute-mapping text, e.g.
    ["[i1, i2, r1] <- [(n*112 + q) mod 16, k mod 16, c mod 16]"]:
    per used intrinsic iteration, the software iterations fused onto it
    (first slowest, extent-1 iterations omitted unless all are 1).  It is
    rendered into one buffer in one pass.  [Explore.mapping_seed] hashes
    the text into the mapping's RNG stream, so it must never change: the
    test suite keeps the previous renderer as a byte-for-byte oracle. *)
