(** Mediated network layer with deterministic fault injection.

    The socket-facing twin of {!Amos_service.Fs_io}: every byte the
    plan server moves over a socket — frame reads, frame writes, and
    outbound connects — goes through a {!t} handle.  The default
    handle ({!real}, shared as {!default}) passes straight through to
    the OS; {!faulty} and {!chaos} build handles over an
    {!Amos_service.Fault_plan} (its one-shot and seeded-chaos rules
    apply unchanged), so the network pathologies that are rare races
    in production — a peer resetting mid-frame, a kernel delivering a
    4-byte read, a stalled-but-alive owner, bit rot on the wire —
    become reproducible, deterministic schedules a unit test can
    assert recovery against.

    Faults surface exactly the way the OS would surface them:
    [Reset] and [Timeout] raise [Unix.Unix_error] ([ECONNRESET] /
    [EAGAIN]), [Short] returns a legal partial count the caller's
    read/write loop must absorb, [Corrupt] hands back damaged bytes
    that only the frame decoder can detect. *)

type op =
  | Connect  (** outbound connection establishment *)
  | Read
      (** socket reads: one per fill of a connection's frame buffer,
          usually one per frame *)
  | Write  (** socket writes *)

type mode =
  | Reset
      (** raises [Unix.Unix_error (ECONNRESET, _, _)] — the peer
          vanished mid-operation *)
  | Timeout
      (** raises [Unix.Unix_error (EAGAIN, _, _)] — what a socket
          deadline ([SO_RCVTIMEO]/[SO_SNDTIMEO]) expiring looks like *)
  | Stall of float
      (** sleeps that many (real) seconds, then performs the operation
          normally — a slow-but-alive peer *)
  | Short of int
      (** read: deliver at most [n] bytes of what was asked; write:
          write only the first [n] bytes and report that count.  Both
          are legal kernel behaviours a correct caller must loop over. *)
  | Corrupt
      (** perform the operation but damage the bytes (bit-flip), so
          the frame decoder sees garbage.  On [Connect] this degrades
          to [Reset]. *)

type fault = {
  op : op;
  after : int;  (** fire on the [after]-th matching call, counted from 0 *)
  mode : mode;
}

type t

val real : unit -> t
(** No faults; plain OS operations. *)

val default : t
(** A shared pass-through handle, the implicit argument everywhere a
    [?net] is omitted. *)

val faulty : fault list -> t
(** One-shot triggers, as {!Amos_service.Fault_plan.Make.faulty}. *)

val chaos : ?stall_s:float -> rate:float -> seed:int -> unit -> t
(** Seeded chaos at [rate], as {!Amos_service.Fault_plan.Make.chaos},
    cycling through short, stall of [stall_s] (default 50 ms), reset,
    corrupt, timeout.  Powers the chaos bench and [AMOS_NET_CHAOS]. *)

val of_env : unit -> t
(** Build a handle from the environment, for smoke tests that need to
    poison daemons from the outside:

    - [AMOS_NET_CHAOS="rate=0.1,seed=7"] (optional [,stall=0.05])
      builds {!chaos};
    - [AMOS_NET_FAULTS="read:2:reset;write:0:short:10;connect:1:stall:0.5"]
      builds {!faulty} from [op:after:mode[:arg]] triples;
    - neither set: {!default}.

    A malformed spec fails fast with [Invalid_argument] rather than
    silently running without faults. *)

val op_count : t -> op -> int
(** How many calls of [op] this handle has mediated (faulted or not). *)

val injected : t -> int
(** How many faults this handle has fired so far. *)

(** {2 Mediated operations} *)

val read : t -> Unix.file_descr -> bytes -> int -> int -> int
(** [read t fd buf off len] like [Unix.read], through the fault plan. *)

val write : t -> Unix.file_descr -> bytes -> int -> int -> int
(** [write t fd buf off len] like [Unix.write], through the fault
    plan.  A [Short] fault writes a prefix and returns its length —
    callers must loop, as with any socket write. *)

val connect : t -> (unit -> Unix.file_descr) -> Unix.file_descr
(** [connect t f] mediates connection establishment: the fault (if
    armed) fires before [f ()] runs, so a refused or stalled connect
    never half-opens a socket. *)
