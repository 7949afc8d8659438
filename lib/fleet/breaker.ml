module Clock = Amos_service.Clock

type state = Closed | Open | Half_open

type entry = {
  mutable st : state;
  mutable failures : int;  (* consecutive trips; sizes the next window *)
  mutable blocked_until : float;
  mutable probing : bool;  (* a half-open probe is out *)
  mutable ewma_s : float option;
}

type t = {
  clock : Clock.t;
  base_backoff_s : float;
  max_backoff_s : float;
  latency_threshold_s : float;
  ewma_alpha : float;
  mu : Mutex.t;
  entries : (string, entry) Hashtbl.t;
}

let create ?(base_backoff_s = 1.) ?(max_backoff_s = 30.)
    ?(latency_threshold_s = 5.) ?(ewma_alpha = 0.3) ?clock () =
  let clock = match clock with Some c -> c | None -> Clock.real () in
  {
    clock;
    base_backoff_s = Float.max 0.001 base_backoff_s;
    max_backoff_s = Float.max 0.001 max_backoff_s;
    latency_threshold_s = Float.max 0.001 latency_threshold_s;
    ewma_alpha = Float.max 0.01 (Float.min 1. ewma_alpha);
    mu = Mutex.create ();
    entries = Hashtbl.create 8;
  }

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* doubling from the base, capped: 1s, 2s, 4s ... max.  The shift is
   bounded so a long outage cannot overflow into a negative backoff. *)
let backoff_s t failures =
  let exp = min 30 (max 0 (failures - 1)) in
  Float.min t.max_backoff_s (t.base_backoff_s *. Float.of_int (1 lsl exp))

let get t peer =
  match Hashtbl.find_opt t.entries peer with
  | Some e -> e
  | None ->
      let e =
        {
          st = Closed;
          failures = 0;
          blocked_until = 0.;
          probing = false;
          ewma_s = None;
        }
      in
      Hashtbl.replace t.entries peer e;
      e

let trip t e =
  e.failures <- e.failures + 1;
  e.st <- Open;
  e.probing <- false;
  e.blocked_until <- Clock.now t.clock +. backoff_s t e.failures

let failure t peer = locked t.mu (fun () -> trip t (get t peer))

let success t peer ~latency_s =
  locked t.mu (fun () ->
      let e = get t peer in
      let ewma =
        match e.ewma_s with
        | None -> latency_s
        | Some prev ->
            (t.ewma_alpha *. latency_s) +. ((1. -. t.ewma_alpha) *. prev)
      in
      e.ewma_s <- Some ewma;
      if ewma > t.latency_threshold_s then
        (* slow-but-alive: the answer arrived, but an owner this
           degraded must cost one probe per window, not one slow round
           trip per lookup *)
        trip t e
      else begin
        (* a healthy answer closes the breaker outright — whether it
           was the half-open probe or a plain closed-state success *)
        e.st <- Closed;
        e.failures <- 0;
        e.probing <- false;
        e.blocked_until <- 0.
      end)

let available t peer =
  locked t.mu (fun () ->
      match Hashtbl.find_opt t.entries peer with
      | None -> true
      | Some e -> (
          match e.st with
          | Closed -> true
          | Open ->
              if Clock.now t.clock >= e.blocked_until then begin
                (* window over: half-open, and this caller IS the
                   single probe — racing callers see [false] until the
                   probe resolves *)
                e.st <- Half_open;
                e.probing <- true;
                true
              end
              else false
          | Half_open ->
              if e.probing then false
              else begin
                e.probing <- true;
                true
              end))

let state t peer =
  locked t.mu (fun () ->
      match Hashtbl.find_opt t.entries peer with
      | None -> Closed
      | Some e ->
          (* an expired open window reads as half-open even before a
             probe claims it: state never depends on who asked first *)
          if e.st = Open && Clock.now t.clock >= e.blocked_until then Half_open
          else e.st)

let failures t peer =
  locked t.mu (fun () ->
      match Hashtbl.find_opt t.entries peer with
      | None -> 0
      | Some e -> e.failures)

let blocked_until t peer =
  locked t.mu (fun () ->
      match Hashtbl.find_opt t.entries peer with
      | Some e when e.st <> Closed -> Some e.blocked_until
      | _ -> None)
