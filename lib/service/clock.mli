(** Injectable time source.

    Every time read in the plan service ({!Plan_cache} access stamps and
    retention scoring, {!Badlist} marker timestamps, quarantine TTLs,
    the daemon's uptime and tuning timers) goes through a [Clock.t]:
    {!real} (the default everywhere) delegates to [Unix.gettimeofday],
    while {!virtual_} is a settable counter that tests advance
    explicitly — time-dependent behaviour becomes deterministic and no
    test needs a wall-clock sleep. *)

type t

val real : unit -> t
(** Reads [Unix.gettimeofday] on every {!now}. *)

val virtual_ : ?now:float -> unit -> t
(** A virtual clock starting at [now] (default 0.); it only moves when
    {!set} or {!advance} is called. *)

val now : t -> float
(** Current time in seconds since the epoch (or since whatever origin a
    virtual clock was given). *)

val set : t -> float -> unit
(** Jump a virtual clock to an absolute time.  Raises
    [Invalid_argument] on a real clock. *)

val advance : t -> float -> unit
(** Move a virtual clock forward by [dt] seconds.  Raises
    [Invalid_argument] on a real clock. *)
