(** Textual serialization of tuned plans.

    Tuning is deterministic but not free; production flows cache the
    chosen (mapping, schedule) per operator and accelerator.  The format
    is a line-oriented key=value text that is stable across runs and
    diff-friendly:

    {v
    intrinsic wmma::mma_sync(16x16x16)
    iters n k p q c r s
    src_perm 0,1
    assign n=i1 p=i1 q=i1 k=i2 c=r1 r=r1 s=r1
    split n 8 1 2
    ...
    stage 2
    unroll 4
    vectorize true
    v}

    Reading is two steps.  {!parse} turns the text into a {!plan} that
    depends on no operator; {!bind} resolves that plan against an
    operator and accelerator and re-runs every check.  A cache parses an
    entry once and binds it on every hit; {!load} is the two in a row. *)

open Amos_ir

type provenance = {
  source_accel : string;  (** accelerator the plan was originally tuned for *)
  source_fingerprint : string;  (** its cache fingerprint on that accelerator *)
}
(** Migration provenance: where a plan's seed knowledge came from.
    Serialized as one extra [provenance <fingerprint> <accel>] header
    line that pre-migration readers simply ignore (and pre-migration
    plan files simply lack), so both directions stay parseable. *)

val save :
  ?provenance:provenance -> ?tuning_seconds:float -> Mapping.t -> Schedule.t ->
  string
(** [tuning_seconds] — the exploration cost that produced this plan —
    is serialized as one extra [tuned_in <seconds>] header line.  Like
    provenance, older readers ignore it and older plan texts lack it;
    the cache economy reads it back through {!tuning_seconds} to value
    migrated plans correctly.  The operator's iteration names, in
    order, ride the same way as an [iters] line, so {!bind} can match
    them by position; it is left out when a name is empty, holds a
    space or a newline, or repeats. *)

type plan
(** A parsed plan text: the intrinsic's name, the saved operator's
    iteration names (when the text has them), [src_perm], the
    assignment pairs, the split table, and the stage, unroll and
    vectorize settings.  Immutable, and the same for every operator it
    is later bound to. *)

val parse : string -> plan option
(** One pass over the text, each line tokenized once.  The first line
    of each key counts; a [split] line that does not read as a name and
    three integers is passed over for a later one; unknown keys are
    ignored.  [None] when a required line is missing or malformed, when
    [src_perm] is not a permutation of [0 .. n-1], or when the [iters]
    line is empty or repeats a name. *)

val bind :
  Accelerator.t -> Operator.t -> plan -> (Mapping.t * Schedule.t) option
(** Re-binds the plan to the given operator and accelerator: the
    intrinsic is looked up by name, then each software iteration the
    plan names is found in the operator.  A plan with an [iters] line
    names the saved operator's iterations, and its [k]-th name stands
    for the operator's [k]-th iteration, since cache fingerprints
    identify iterations by position; a plan without one (saved before
    the line existed) binds by name.  The matching is then validated
    (Algorithm 1), the mapping and its split dims are rebuilt, and the
    schedule is validated against them.  Every check runs on every
    call: nothing of the operator is kept in the plan.  [None] when
    anything fails to resolve or validate — e.g. the plan was saved for
    a different operator shape or another accelerator. *)

val load :
  Accelerator.t -> Operator.t -> string -> (Mapping.t * Schedule.t) option
(** [parse] then [bind]: [None] whenever either gives [None], for any
    text. *)

val provenance : string -> provenance option
(** The provenance header of a saved plan text, if any ([None] for every
    pre-migration plan file). *)

val tuning_seconds : string -> float option
(** The [tuned_in] header of a saved plan text, if any ([None] for plan
    texts from before the cache economy). *)
