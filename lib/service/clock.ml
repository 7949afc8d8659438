(* Injectable time source.  Production code reads the real clock; tests
   construct a virtual clock and advance it explicitly, so every
   time-dependent cache behaviour (age decay, quarantine TTLs, retention
   scoring) is deterministic and sleep-free. *)

type t =
  | Real
  | Virtual of { mutable now : float }

let real () = Real
let virtual_ ?(now = 0.) () = Virtual { now }

let now = function
  | Real -> Unix.gettimeofday ()
  | Virtual v -> v.now

let set t at =
  match t with
  | Virtual v -> v.now <- at
  | Real -> invalid_arg "Clock.set: the real clock cannot be set"

let advance t dt =
  match t with
  | Virtual v -> v.now <- v.now +. dt
  | Real -> invalid_arg "Clock.advance: the real clock cannot be advanced"
