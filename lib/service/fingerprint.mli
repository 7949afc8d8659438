(** Content-addressed keys for tuned plans.

    A plan is reusable exactly when the tuner would reproduce it: same
    operator {e structure and shape} (names do not matter — the conv3x3
    repeated 4x inside ResNet hits one cache line no matter what each
    layer is called), same accelerator, same tuning budget and seed.
    The fingerprint is an MD5 over a canonical rendering of those four
    components; iteration variables are referred to by position, never
    by their globally unique ids, so two structurally identical
    operators built at different times fingerprint identically. *)

open Amos
open Amos_ir

type budget = {
  population : int;
  generations : int;
  measure_top : int;
  seed : int;
      (** part of the key, so plans stored under different seeds stay
          apart; the tuner itself reads no seed (every search stream
          derives from its mapping), so it does not change the plan *)
}

val default_budget : budget
(** [Explore.tune]'s defaults with seed 2022 (the CLI default). *)

val operator : Operator.t -> string
(** Canonical structural rendering of an operator (name-independent). *)

val accelerator : Accelerator.t -> string
(** Canonical rendering of the machine config and intrinsic set.
    Memoized per accelerator value (physical equality, a small bounded
    table safe to share between domains), so a caller that keeps one
    value renders it once. *)

val key : accel:Accelerator.t -> op:Operator.t -> budget:budget -> string
(** 32-hex-char content fingerprint. *)

val op_key : op:Operator.t -> budget:budget -> string
(** The accelerator-independent slice of {!key}: same operator structure
    and budget fingerprint identically on every accelerator.  Stored
    alongside each cache entry so [Plan_cache.lookup_migratable] can find
    plans for the same computation tuned elsewhere. *)
