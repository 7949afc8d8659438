(** The fault plan under every mediated I/O layer: {!Fs_io} (disk) and
    [Amos_server.Net_io] (sockets) instantiate {!Make} with their own
    operation kinds and fault modes, and decide only what a fired mode
    does.  A handle counts each call it mediates, per kind.  {!faulty}
    triggers are one-shot: each fires on the [after]-th call of its
    kind, then disarms, so recovery code on the same handle never
    re-trips it.  {!chaos} faults each call with probability [rate],
    cycling through the given modes, drawn from a private generator
    seeded with [seed]: the same seed gives the same schedule.  One
    mutex guards the counters and the plan, so threads and domains may
    share a handle. *)

module Make (K : sig
  type op
  type mode
end) : sig
  type fault = {
    op : K.op;
    after : int;  (** fire on the [after]-th matching call, counted from 0 *)
    mode : K.mode;
  }

  type t

  val real : unit -> t
  (** Never faults; still counts. *)

  val faulty : fault list -> t

  val chaos : rate:float -> seed:int -> K.mode array -> t
  (** [rate] is clamped to [0,1]; the mode array must be non-empty. *)

  val trip : t -> K.op -> K.mode option
  (** Count one call of [op] and return the mode that fires on it. *)

  val op_count : t -> K.op -> int

  val injected : t -> int
  (** Faults fired so far. *)
end
