(** Optimization schedules (Table 3a): tile / fuse / bind / parallel /
    cache / unroll / vectorize, applied to the outer loops of a physical
    mapping.

    The outer loop space of a mapping consists of its unmatched software
    iterations plus one tile loop per fused intrinsic dimension.  A
    schedule splits every outer dimension into (core, sub-core, serial)
    factors — the bind/parallel decisions — and sets the shared-buffer
    staging depth (cache), unroll factor, and load vectorization.
    Reduction dimensions are never bound to parallel units (their partial
    sums accumulate in the register fragment). *)

open Amos_ir

type dim = {
  name : string;
  extent : int;
  parallelizable : bool;  (** false for reduction dimensions *)
  origin : [ `Outer_sw of Iter.t | `Tile of int (* intrinsic position *) ];
}

val dims : Mapping.t -> dim list
(** The outer dimensions of a mapping, in a canonical order (software
    iterations first, then tile loops by intrinsic position). *)

type split = {
  block : int;  (** bound to cores *)
  subcore : int;  (** bound to sub-cores within a core *)
  serial : int;  (** executed sequentially; block*subcore*serial >= extent *)
}

type t = {
  splits : split array;  (** aligned with [dims] *)
  stage_depth : int;  (** shared-buffer staging (double buffering etc.) *)
  unroll : int;
  vectorize : bool;
}

val equal : t -> t -> bool

val hash : t -> int
(** Over every field, unlike the generic [Hashtbl.hash], which stops
    after 10 meaningful words: schedules that differ in one field of any
    split hash differently.  With {!equal}, makes this module a
    [Hashtbl.HashedType]. *)

val default : Mapping.t -> t
(** A sensible GPU-style schedule: parallel dimensions fully bound to
    cores, reduction dimensions serial. *)

val random : Amos_tensor.Rng.t -> Mapping.t -> t
val mutate : Amos_tensor.Rng.t -> Mapping.t -> t -> t
val crossover : Amos_tensor.Rng.t -> t -> t -> t
val validate : Mapping.t -> t -> bool
(** Splits cover extents, reduction dims are serial, factors positive. *)

val validate_dims : dim list -> t -> bool
(** {!validate} against an already-computed {!dims} list, for callers that
    hold the dims of a mapping and validate many schedules against it. *)

val describe : Mapping.t -> t -> string

val block_choices : int -> int array
(** The block-factor menu of a dim extent, ascending: every divisor of
    the extent (found by a walk up to its square root) plus the powers of
    two up to 128 below it, which ceil + padding covers.

    Menus are shared: each domain keeps the menus it has built, by
    extent (up to 4096 per menu kind, never evicted), so the mappings of
    one tune stop rebuilding them.  Callers must never mutate a returned
    menu. *)

val subcore_choices : int -> int array
(** The sub-core menu of what a block leaves ([ceil_div extent block]),
    ascending: the members of {!block_choices} up to 8.  Shared like
    {!block_choices}: never mutate it. *)

type space
(** Precomputed search space for one mapping: its {!dims} plus a slot
    per split menu, filled on first use from the shared menus, so the
    genetic loop stops looking them up per candidate.  Not domain-safe:
    one space per search. *)

val space : Mapping.t -> space

val default_in : space -> t
val random_in : space -> Amos_tensor.Rng.t -> t
val mutate_in : space -> Amos_tensor.Rng.t -> t -> t
val validate_in : space -> t -> bool
(** The one implementation of {!default}, {!random}, {!mutate} and
    {!validate}, which run it on a fresh [space m]: a search that draws
    many schedules for one mapping builds its space once.  Every pinned
    tuning result depends on the RNG stream these draw; the test suite
    checks it against a list-based reference over {!dims}. *)
