(* [Single_flight] and [Admission] as they stood before the flights
   folded into [Admission], kept verbatim as the oracle: [props.flights]
   composes them as the daemon did — refuse while stopping, [acquire],
   [submit] only when leading, and on a refusal complete the flight as
   busy and detach the leader — and asserts that the folded [Admission]
   agrees on every observable of the same script. *)

module Single_flight = struct
  type ('a, 'p) flight = {
    key : string;
    mutable result : 'a option;
    mutable attached : int;  (* waiters not yet detached *)
    mutable abort : bool;  (* last waiter detached while unresolved *)
    mutable waiters : ('a, 'p) waiter list;
  }

  and ('a, 'p) waiter = {
    w_flight : ('a, 'p) flight;
    w_queue : 'p Queue.t;  (* progress snapshots pending delivery *)
    w_streaming : bool;
    mutable w_detached : bool;
    mutable w_cancelled : bool;
  }

  type ('a, 'p) t = {
    mutex : Mutex.t;
    wake : Condition.t;  (* progress published, flight completed, or a
                            waiter cancelled; sleepers re-check theirs *)
    table : (string, ('a, 'p) flight) Hashtbl.t;
  }

  let create () =
    {
      mutex = Mutex.create ();
      wake = Condition.create ();
      table = Hashtbl.create 16;
    }

  let flight w = w.w_flight

  let acquire ?(streaming = false) t key =
    Mutex.lock t.mutex;
    let attach f =
      let w =
        {
          w_flight = f;
          w_queue = Queue.create ();
          w_streaming = streaming;
          w_detached = false;
          w_cancelled = false;
        }
      in
      f.attached <- f.attached + 1;
      f.waiters <- w :: f.waiters;
      w
    in
    let r =
      match Hashtbl.find_opt t.table key with
      | Some f ->
          (* fresh interest in a flight whose last waiter walked away
             withdraws the abort request — unless the exploration already
             observed it, in which case the joiner simply collects the
             leader's terminal (busy) result and retries *)
          f.abort <- false;
          `Join (attach f)
      | None ->
          let f =
            { key; result = None; attached = 0; abort = false; waiters = [] }
          in
          Hashtbl.replace t.table key f;
          `Lead (attach f)
    in
    Mutex.unlock t.mutex;
    r

  let complete t f v =
    Mutex.lock t.mutex;
    (match f.result with
    | Some _ -> () (* already completed *)
    | None ->
        f.result <- Some v;
        (* waiters hold a reference to [f] itself, so retiring the table
           entry now cannot strand them; it just lets the next request
           for this key start a fresh flight *)
        Hashtbl.remove t.table f.key;
        Condition.broadcast t.wake);
    Mutex.unlock t.mutex

  let publish t f p =
    Mutex.lock t.mutex;
    (* delivery is enqueue-only: a waiter drains its own queue from its
       own connection thread, so a dead or slow socket can never block the
       flight (or its co-waiters) here *)
    if f.result = None then begin
      List.iter
        (fun w ->
          if w.w_streaming && (not w.w_detached) && not w.w_cancelled then
            Queue.push p w.w_queue)
        f.waiters;
      Condition.broadcast t.wake
    end;
    Mutex.unlock t.mutex

  let next t w =
    Mutex.lock t.mutex;
    let rec loop () =
      if w.w_cancelled then `Cancelled
      else if not (Queue.is_empty w.w_queue) then `Progress (Queue.pop w.w_queue)
      else
        match w.w_flight.result with
        | Some v -> `Done v
        | None ->
            Condition.wait t.wake t.mutex;
            loop ()
    in
    let r = loop () in
    Mutex.unlock t.mutex;
    r

  let wait t w =
    Mutex.lock t.mutex;
    let rec loop () =
      if w.w_cancelled then `Cancelled
      else
        match w.w_flight.result with
        | Some v -> `Done v
        | None ->
            Condition.wait t.wake t.mutex;
            loop ()
    in
    let r = loop () in
    Mutex.unlock t.mutex;
    r

  let cancel t w =
    Mutex.lock t.mutex;
    if (not w.w_detached) && not w.w_cancelled then begin
      w.w_cancelled <- true;
      Condition.broadcast t.wake
    end;
    Mutex.unlock t.mutex

  let detach t w =
    Mutex.lock t.mutex;
    let remaining =
      if w.w_detached then w.w_flight.attached
      else begin
        w.w_detached <- true;
        w.w_flight.attached <- w.w_flight.attached - 1;
        w.w_flight.waiters <-
          List.filter (fun x -> x != w) w.w_flight.waiters;
        if w.w_flight.attached <= 0 && w.w_flight.result = None then
          w.w_flight.abort <- true;
        w.w_flight.attached
      end
    in
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    remaining

  (* Lock-free single-word read: the daemon's progress hook reads this
     once per genetic generation.  The only writers flip it under the table mutex,
     and a stale [false] just delays the abort by one generation. *)
  let abort_requested f = f.abort

  let in_flight t =
    Mutex.lock t.mutex;
    let n = Hashtbl.length t.table in
    Mutex.unlock t.mutex;
    n
end

module Admission = struct
  module Clock = Amos_service.Clock

  (* One client's backlog.  [deficit] is the DRR credit in tasks (unit
     cost: every tune is one task); [in_round] says whether the client
     currently holds a slot in the round queue — a client appears there
     at most once. *)
  type client_q = {
    ck_key : string;
    ck_weight : int;
    ck_queue : (unit -> unit) Queue.t;
    mutable ck_deficit : int;
    mutable ck_in_round : bool;
  }

  type t = {
    mutex : Mutex.t;
    wake : Condition.t;  (* work admitted, a slot freed, or closed *)
    clock : Clock.t;
    workers : int;
    capacity : int;
    alpha : float;
    weight_of : string -> int;
    clients : (string, client_q) Hashtbl.t;
    round : client_q Queue.t;
    mutable queued : int;
    mutable running : int;
    mutable ewma : float option;  (* seconds per completed task *)
    mutable closed : bool;
    mutable domains : unit Domain.t list;  (* started workers *)
  }

  let create ?(alpha = 0.3) ?(weight_of = fun _ -> 1) ~clock ~workers ~capacity
      () =
    {
      mutex = Mutex.create ();
      wake = Condition.create ();
      clock;
      workers = max 1 workers;
      capacity = max 1 capacity;
      alpha;
      weight_of;
      clients = Hashtbl.create 16;
      round = Queue.create ();
      queued = 0;
      running = 0;
      ewma = None;
      closed = false;
      domains = [];
    }

  (* Projected time a freshly admitted task waits before completing:
     every task ahead of it (queued plus running) costs one EWMA'd tune,
     spread over the worker slots.  Before the first completion there is
     no evidence, and the queue admits on depth alone. *)
  let projected_wait_locked t =
    match t.ewma with
    | None -> 0.
    | Some e -> e *. float_of_int (t.queued + t.running) /. float_of_int t.workers

  let projected_wait t =
    Mutex.lock t.mutex;
    let w = projected_wait_locked t in
    Mutex.unlock t.mutex;
    w

  let submit t ~client ?deadline_ms task =
    Mutex.lock t.mutex;
    let r =
      if t.closed || t.queued >= t.capacity then `Busy
      else begin
        let projected = projected_wait_locked t in
        match deadline_ms with
        | Some d when projected > float_of_int d /. 1000. ->
            (* the request would already be dead by the time a worker
               reached it: refuse *before* enqueueing, with the evidence *)
            `Deadline projected
        | _ ->
            let c =
              match Hashtbl.find_opt t.clients client with
              | Some c -> c
              | None ->
                  let c =
                    {
                      ck_key = client;
                      ck_weight = max 1 (t.weight_of client);
                      ck_queue = Queue.create ();
                      ck_deficit = 0;
                      ck_in_round = false;
                    }
                  in
                  Hashtbl.replace t.clients client c;
                  c
            in
            Queue.push task c.ck_queue;
            if not c.ck_in_round then begin
              c.ck_in_round <- true;
              Queue.push c t.round
            end;
            t.queued <- t.queued + 1;
            Condition.signal t.wake;
            `Admitted
      end
    in
    Mutex.unlock t.mutex;
    r

  let note_locked t dt =
    t.ewma <-
      Some
        (match t.ewma with
        | None -> dt
        | Some e -> (t.alpha *. dt) +. ((1. -. t.alpha) *. e))

  (* Classic deficit round robin, one task per call.  The head client
     receives a fresh quantum of [max 1 weight] credits when it arrives
     at the head with none, and stays at the head until its quantum is
     spent (or its backlog drains) before rotating to the tail — so every
     full round serves each backlogged client exactly its weight, and no
     visit is ever consumed by bookkeeping alone (rotating on recharge
     would silently tax every client one visit per round, skewing the
     share towards w/(w+1)).  The scan is bounded by the round length:
     each recursive step removes one drained client from the round. *)
  let rec pick_locked t guard =
    if guard <= 0 then None
    else
      match Queue.peek_opt t.round with
      | None -> None
      | Some c ->
          if Queue.is_empty c.ck_queue then begin
            (* emptied since it was queued in the round *)
            ignore (Queue.pop t.round);
            c.ck_in_round <- false;
            c.ck_deficit <- 0;
            pick_locked t (guard - 1)
          end
          else begin
            if c.ck_deficit <= 0 then c.ck_deficit <- max 1 c.ck_weight;
            c.ck_deficit <- c.ck_deficit - 1;
            let task = Queue.pop c.ck_queue in
            t.queued <- t.queued - 1;
            if Queue.is_empty c.ck_queue then begin
              ignore (Queue.pop t.round);
              c.ck_in_round <- false;
              c.ck_deficit <- 0
            end
            else if c.ck_deficit <= 0 then begin
              (* quantum spent: to the back of the round *)
              ignore (Queue.pop t.round);
              Queue.push c t.round
            end;
            Some task
          end

  let take_locked t =
    if t.running >= t.workers then None
    else
      match pick_locked t (1 + Queue.length t.round) with
      | None -> None
      | Some task ->
          t.running <- t.running + 1;
          let started = Clock.now t.clock in
          Some
            (fun () ->
              Fun.protect
                ~finally:(fun () ->
                  let dt = Clock.now t.clock -. started in
                  Mutex.lock t.mutex;
                  t.running <- t.running - 1;
                  note_locked t dt;
                  Condition.signal t.wake;
                  Mutex.unlock t.mutex)
                task)

  let take t =
    Mutex.lock t.mutex;
    let r = take_locked t in
    Mutex.unlock t.mutex;
    r

  (* A started worker: block until [take] would hand out a task, run it,
     and repeat; exit once the queue is closed and its backlog is empty,
     so a close drains everything admitted before it. *)
  let rec work t =
    Mutex.lock t.mutex;
    let rec next () =
      match take_locked t with
      | Some _ as task -> task
      | None when t.closed && t.queued = 0 -> None
      | None ->
          Condition.wait t.wake t.mutex;
          next ()
    in
    let task = next () in
    Mutex.unlock t.mutex;
    match task with
    | None -> ()
    | Some task ->
        (* tasks own their error handling: a raise would kill the worker
           domain, so it is swallowed here rather than trusted away *)
        (try task () with _ -> ());
        work t

  let start t =
    Mutex.lock t.mutex;
    t.domains <- List.init t.workers (fun _ -> Domain.spawn (fun () -> work t));
    Mutex.unlock t.mutex

  let depth t =
    Mutex.lock t.mutex;
    let d = t.queued in
    Mutex.unlock t.mutex;
    d

  let running t =
    Mutex.lock t.mutex;
    let r = t.running in
    Mutex.unlock t.mutex;
    r

  let load t =
    Mutex.lock t.mutex;
    let l = t.queued + t.running in
    Mutex.unlock t.mutex;
    l

  let ewma t =
    Mutex.lock t.mutex;
    let e = t.ewma in
    Mutex.unlock t.mutex;
    e

  let close t =
    Mutex.lock t.mutex;
    t.closed <- true;
    Condition.broadcast t.wake;
    let domains = t.domains in
    Mutex.unlock t.mutex;
    (* every caller joins, so each returns only after the drain *)
    List.iter Domain.join domains
end
