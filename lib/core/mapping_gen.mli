(** Two-step software-hardware mapping generation (Sec 5.1).

    Step 1 maps software iterations onto a virtual accelerator with
    unlimited resources by matching software iterations to intrinsic
    iterations (column compatibility of the access matrices).  Step 2 (in
    {!Mapping}) reintroduces the problem-size and capacity constraints.

    Enumeration rules (DESIGN.md §5):
    - a software iteration maps to at most one intrinsic iteration whose
      access-matrix column equals its own;
    - every intrinsic dimension that has any compatible software iteration
      must receive a non-empty set (hardware dimensions are not wasted
      when usable); dimensions with no candidates stay unused and are
      padded to extent 1;
    - source-operand correspondences ([src_perm]) are enumerated modulo
      the intrinsic's automorphisms (so the two mirror-symmetric GEMM
      mappings on Tensor Core count once, matching Table 6);
    - every candidate is checked by Algorithm 1 ({!Matching.validate});
    - with [~filter:true] (default) the feasibility rule
      ({!Matching.feasible}) is applied. *)

open Amos_ir

val src_perms : Mac_view.t -> Intrinsic.t -> int array list
(** Source-operand correspondences, deduplicated by intrinsic
    automorphism.  Empty when the arities differ. *)

val candidates :
  Mac_view.t -> Intrinsic.t -> src_perm:int array -> (Iter.t * Iter.t list) list
(** Per software iteration, the compatible intrinsic iterations. *)

val structure_key : filter:bool -> Mac_view.t -> Intrinsic.t -> string
(** Everything {!generate} reads, and nothing more: the filter flag, the
    intrinsic's iteration kinds and extents and its operands' slots by
    position, the number of view sources, and per software iteration
    (in op order) its access column, reduction flag and independence
    flag.  Names, [Iter.t] ids and software extents are left out, so
    every (operator, intrinsic) pair of one structure shares a key.  It
    is also the first half of a mapping-type quotient. *)

val generate : ?filter:bool -> Mac_view.t -> Intrinsic.t -> Matching.t list
(** The validated matchings, in generation order, memoized by
    {!structure_key}.  A miss runs Algorithm 1 through one
    {!Matching.workspace}: preallocated scratch matrices plus a
    validation memo keyed on the packed (X, Y, Z) words, so the
    backtracking enumeration allocates O(1) new words per candidate.
    A hit returns the key's list without re-running Algorithm 1, rebuilt
    over this view and this intrinsic's iterations by position.  That is
    sound because Algorithm 1 decides validity from the binary matrices
    X, Y and Z alone (Sec 5.2), and the feasibility filter reads only
    reduction kinds and independence: all of it is in the key.

    The memo is domain-safe and bounded: keys are admitted while fewer
    than 512 are held, and never evicted; past that, a new structure is
    enumerated on every call.  Its verdicts are {!Matching.validate}'s:
    the test suite compares the mapping lists, hit and miss, with a
    reference enumeration that validates each candidate on its own. *)

val generate_op : ?filter:bool -> Operator.t -> Intrinsic.t -> Matching.t list
(** [[]] when the operator has no MAC view (max-accumulation). *)

val count : ?filter:bool -> Operator.t -> Intrinsic.t -> int
(** Number of feasible mappings — the Table 6 quantity. *)
