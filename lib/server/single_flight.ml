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
