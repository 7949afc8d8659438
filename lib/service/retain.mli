(** Retention scoring for the cache economy.

    Every cached plan carries an {!item} — the serialized bytes it
    occupies, the tuning seconds spent producing it, and when it was
    last accessed (read off an injectable {!Clock}).  Its retention
    {!score} is {e tuning-seconds-saved per byte, age-decayed}:

    {v score = (tuning_seconds / max 1 bytes) * 0.5 ^ (age / half_life) v}

    where [age = now - last_access].  All three cache tiers — the
    daemon's hot front cache, and the persistent {!Plan_cache}'s memory
    tier and disk index — hold their entries in one {!Table} and evict
    its {!Table.victim} when over their bound, so what survives under
    pressure is the exploration that would cost the most to re-pay.

    The decay depends only on [now - last_access], so translating every
    timestamp by the same delta leaves the score unchanged — eviction
    order is invariant under clock translation (pinned by a QCheck
    property in the test suite). *)

type item = {
  bytes : int;  (** serialized size on disk (or on the wire, hot layer) *)
  tuning_seconds : float;  (** exploration cost this entry saves *)
  last_access : float;  (** {!Clock.now} at the last hit/store *)
}
(** Immutable, so a {!Table}'s running totals cannot drift from its
    entries: only {!Table.set} and {!Table.touch} replace an item. *)

val default_tuning_seconds : float
(** Conservative value assumed for entries written before value metadata
    existed (1.0s): non-zero so legacy entries are not discarded as
    worthless, modest so plans with recorded costs win ties. *)

val default_half_life : float
(** 3600 seconds: an untouched entry loses half its score per hour. *)

val score : ?half_life:float -> now:float -> item -> float

type budget = {
  max_bytes : int option;  (** [None] = unbounded *)
  max_tuning_seconds : float option;
      (** cap on the total tuning-seconds a cache layer protects *)
}

val unlimited : budget

val over : budget -> bytes:int -> tuning_seconds:float -> bool
(** Does a layer holding [bytes] / [tuning_seconds] exceed the budget? *)

type policy =
  [ `Scored  (** evict the lowest {!score} first *)
  | `Lru  (** value-blind baseline: evict the least recently accessed *) ]

(** The one retention table under every cache tier: fingerprint to value
    and {!item}, with running byte and tuning-second totals.  Each tier
    keeps its own bound and admission order and asks {!victim} which
    entry to drop.  Not thread-safe. *)
module Table : sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int

  val bytes : 'a t -> int
  (** Sum of the items' [bytes], kept as entries come and go. *)

  val tuning_seconds : 'a t -> float
  (** Sum of the items' [tuning_seconds]; exactly [0.] when empty. *)

  val mem : 'a t -> string -> bool
  val item : 'a t -> string -> item option

  val set : 'a t -> string -> 'a -> item -> unit
  (** Add or replace an entry; a replaced entry leaves the totals. *)

  val touch : 'a t -> string -> now:float -> 'a option
  (** A hit: stamp the entry's [last_access] and return its value.
      [None], stamping nothing, when absent. *)

  val remove : 'a t -> string -> unit
  val reset : 'a t -> unit

  val fold : (string -> 'a -> item -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

  val victim : policy -> now:float -> 'a t -> (string * item) option
  (** The entry to evict first: the lowest {!score} under [`Scored], the
      oldest [last_access] under [`Lru], ties to the smallest
      fingerprint.  [None] when empty.  Scans every entry. *)
end
