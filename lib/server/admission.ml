module Clock = Amos_service.Clock

type ('a, 'p) flight = {
  key : string;
  job : ('a, 'p) flight -> 'a;
  mutable outcome : ('a, exn) result option;  (* set once, by the worker *)
  mutable waiters : ('a, 'p) waiter list;  (* attached, not yet detached *)
  mutable abort : bool;  (* last waiter detached while unresolved *)
}

and ('a, 'p) waiter = {
  flight : ('a, 'p) flight;
  queue : 'p Queue.t;  (* progress snapshots pending delivery *)
  streaming : bool;
  request_id : int option;
  mutable detached : bool;
  mutable cancelled : bool;
}

(* One client's backlog.  [deficit] is the DRR credit in jobs (unit
   cost: every tune is one job); [in_round] says whether the client
   currently holds a slot in the round queue — a client appears there
   at most once. *)
type ('a, 'p) client_q = {
  ck_weight : int;
  ck_queue : ('a, 'p) flight Queue.t;
  mutable ck_deficit : int;
  mutable ck_in_round : bool;
}

(* One worker domain, from the submit that decides to spawn it until
   it is joined. *)
type worker = {
  mutable handle : unit Domain.t option;  (* recorded once spawned *)
  mutable exited : bool;  (* left [work]; its domain awaits a join *)
}

type ('a, 'p) t = {
  mutex : Mutex.t;
  work : Condition.t;  (* a job admitted, a slot freed, a tick, or closed *)
  wake : Condition.t;  (* progress published, a flight resolved, a waiter
                          cancelled, or a spawn settled after the close;
                          sleepers re-check theirs *)
  clock : Clock.t;
  workers : int;
  capacity : int;
  alpha : float;
  weight_of : string -> int;
  flights : (string, ('a, 'p) flight) Hashtbl.t;  (* unresolved, by key *)
  requests : (int, ('a, 'p) waiter) Hashtbl.t;  (* request id -> waiter *)
  clients : (string, ('a, 'p) client_q) Hashtbl.t;
  round : ('a, 'p) client_q Queue.t;
  mutable queued : int;
  mutable running : int;
  mutable ewma : float option;  (* seconds per completed job *)
  mutable closed : bool;
  mutable started : bool;  (* submits spawn workers *)
  mutable ticks : int;  (* the workers' idle clock *)
  mutable pool : worker list;  (* every worker not yet joined *)
}

let create ?(alpha = 0.3) ?(weight_of = fun _ -> 1) ~clock ~workers ~capacity
    () =
  {
    mutex = Mutex.create ();
    work = Condition.create ();
    wake = Condition.create ();
    clock;
    workers = max 1 workers;
    capacity = max 1 capacity;
    alpha;
    weight_of;
    flights = Hashtbl.create 16;
    requests = Hashtbl.create 16;
    clients = Hashtbl.create 16;
    round = Queue.create ();
    queued = 0;
    running = 0;
    ewma = None;
    closed = false;
    started = false;
    ticks = 0;
    pool = [];
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Projected time a freshly admitted job waits before completing:
   every job ahead of it (queued plus running) costs one EWMA'd tune,
   spread over the worker slots.  Before the first completion there is
   no evidence, and the queue admits on depth alone. *)
let projected_wait_locked t =
  match t.ewma with
  | None -> 0.
  | Some e -> e *. float_of_int (t.queued + t.running) /. float_of_int t.workers

let projected_wait t = locked t (fun () -> projected_wait_locked t)

let enqueue_locked t ~client f =
  let c =
    match Hashtbl.find_opt t.clients client with
    | Some c -> c
    | None ->
        let c =
          {
            ck_weight = max 1 (t.weight_of client);
            ck_queue = Queue.create ();
            ck_deficit = 0;
            ck_in_round = false;
          }
        in
        Hashtbl.replace t.clients client c;
        c
  in
  Queue.push f c.ck_queue;
  if not c.ck_in_round then begin
    c.ck_in_round <- true;
    Queue.push c t.round
  end;
  t.queued <- t.queued + 1;
  Condition.signal t.work

let note_locked t dt =
  t.ewma <-
    Some
      (match t.ewma with
      | None -> dt
      | Some e -> (t.alpha *. dt) +. ((1. -. t.alpha) *. e))

(* Classic deficit round robin, one job per call.  The head client
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
          let f = Queue.pop c.ck_queue in
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
          Some f
        end

(* Resolve the flight, wake its waiters and free the key for a fresh
   flight. *)
let resolve_locked t f outcome =
  f.outcome <- Some outcome;
  Hashtbl.remove t.flights f.key;
  Condition.broadcast t.wake

(* A job handed out: its flight and when it started. *)
let take_locked t =
  if t.running >= t.workers then None
  else
    match pick_locked t (1 + Queue.length t.round) with
    | None -> None
    | Some f ->
        t.running <- t.running + 1;
        Some (f, Clock.now t.clock)

(* Run a job without the lock: what it returns or raises resolves its
   flight. *)
let run_job (f, _) = match f.job f with v -> Ok v | exception e -> Error e

(* In the step that resolves the flight, release the slot and feed the
   EWMA. *)
let finish_locked t (f, started) outcome =
  resolve_locked t f outcome;
  t.running <- t.running - 1;
  note_locked t (Clock.now t.clock -. started);
  Condition.signal t.work

let take t =
  locked t (fun () ->
      Option.map
        (fun job () ->
          let outcome = run_job job in
          locked t (fun () -> finish_locked t job outcome))
        (take_locked t))

let live_locked t =
  List.fold_left (fun n w -> if w.exited then n else n + 1) 0 t.pool

(* A spawned worker: take and run jobs until the table is closed and
   its backlog empty, so a close drains everything admitted before it,
   or until it has waited a full tick with nothing to take.  A job's
   completion and the next take are one step, so the wait starts when
   the flight resolves.  A worker whose handle is not yet recorded
   stays, so every exited worker can be joined. *)
let work t w =
  let rec next since =
    match take_locked t with
    | Some _ as job -> job
    | None
      when (t.closed && t.queued = 0)
           || (t.ticks - since >= 2 && Option.is_some w.handle) ->
        w.exited <- true;
        None
    | None ->
        Condition.wait t.work t.mutex;
        next since
  in
  let rec loop = function
    | None -> ()
    | Some job ->
        let outcome = run_job job in
        loop
          (locked t (fun () ->
               finish_locked t job outcome;
               next t.ticks))
  in
  loop (locked t (fun () -> next t.ticks))

(* Decided under the lock by the submit that just queued a job: spawn
   one worker when more jobs are queued than the free live workers can
   take, keeping at most [workers] live.  The exited workers leave the
   pool here, their domains to be joined before the spawn, so the
   table never holds more than [workers] handles. *)
let reserve_worker_locked t =
  let live = live_locked t in
  if t.started && live < t.workers && t.queued > live - t.running then begin
    let exited, pool = List.partition (fun w -> w.exited) t.pool in
    let w = { handle = None; exited = false } in
    t.pool <- w :: pool;
    Some (w, List.filter_map (fun w -> w.handle) exited)
  end
  else None

let rec fail_backlog_locked t e =
  match pick_locked t (1 + Queue.length t.round) with
  | None -> ()
  | Some f ->
      resolve_locked t f (Error e);
      fail_backlog_locked t e

(* Outside the lock.  A spawn that raises gives its slot back; when
   that leaves no worker alive, nobody would take the backlog, so every
   queued flight resolves with the exception instead of stranding its
   waiters. *)
let spawn t (w, exited) =
  List.iter Domain.join exited;
  match Domain.spawn (fun () -> work t w) with
  | d ->
      locked t (fun () ->
          w.handle <- Some d;
          if t.closed then Condition.broadcast t.wake)
  | exception e ->
      locked t (fun () ->
          t.pool <- List.filter (fun x -> x != w) t.pool;
          if live_locked t = 0 then fail_backlog_locked t e;
          if t.closed then Condition.broadcast t.wake)

let submit t ~client ~key ?deadline_ms ?(streaming = false) ?request_id job =
  let reply, worker =
    locked t (fun () ->
        let attach f =
          let w =
            {
              flight = f;
              queue = Queue.create ();
              streaming;
              request_id;
              detached = false;
              cancelled = false;
            }
          in
          f.waiters <- w :: f.waiters;
          Option.iter (fun id -> Hashtbl.replace t.requests id w) request_id;
          w
        in
        if t.closed then (`Busy, None)
        else
          match Hashtbl.find_opt t.flights key with
          | Some f ->
              (* fresh interest in a flight whose last waiter walked away
                 withdraws the abort request — unless the exploration
                 already observed it, in which case the joiner collects
                 the aborted flight's busy answer and retries *)
              f.abort <- false;
              (`Joined (attach f), None)
          | None when t.queued >= t.capacity -> (`Busy, None)
          | None -> (
              let projected = projected_wait_locked t in
              match deadline_ms with
              | Some d when projected > float_of_int d /. 1000. ->
                  (* the request would already be dead by the time a
                     worker reached it: refuse before queueing, with the
                     evidence *)
                  (`Deadline projected, None)
              | _ ->
                  let f =
                    { key; job; outcome = None; waiters = []; abort = false }
                  in
                  Hashtbl.replace t.flights key f;
                  enqueue_locked t ~client f;
                  (`Admitted (attach f), reserve_worker_locked t)))
  in
  Option.iter (spawn t) worker;
  reply

let start t = locked t (fun () -> t.started <- true)

let tick t =
  locked t (fun () ->
      t.ticks <- t.ticks + 1;
      Condition.broadcast t.work)

(* delivery is enqueue-only: a waiter drains its own queue from its own
   thread, so a dead or slow socket can never block the job here *)
let publish t f p =
  locked t (fun () ->
      List.iter
        (fun w -> if w.streaming && not w.cancelled then Queue.push p w.queue)
        f.waiters;
      Condition.broadcast t.wake)

(* Lock-free single-word read: the daemon's progress hook reads this
   once per genetic generation.  The only writers flip it under the
   table's mutex, and a stale [false] just delays the abort by one
   generation. *)
let abort_requested f = f.abort

let next t w =
  let rec loop () =
    if w.cancelled then `Cancelled
    else if not (Queue.is_empty w.queue) then `Progress (Queue.pop w.queue)
    else
      match w.flight.outcome with
      | Some (Ok v) -> `Done v
      | Some (Error e) -> `Failed e
      | None ->
          Condition.wait t.wake t.mutex;
          loop ()
  in
  locked t loop

let cancel t request_id =
  locked t (fun () ->
      match Hashtbl.find_opt t.requests request_id with
      | None -> false
      | Some w ->
          if not w.cancelled then begin
            w.cancelled <- true;
            Condition.broadcast t.wake
          end;
          true)

let detach t w =
  locked t (fun () ->
      let f = w.flight in
      if not w.detached then begin
        w.detached <- true;
        f.waiters <- List.filter (fun x -> x != w) f.waiters;
        (* ids are client-chosen: a later stream under the same id
           keeps its registration when this one finishes *)
        Option.iter
          (fun id ->
            match Hashtbl.find_opt t.requests id with
            | Some x when x == w -> Hashtbl.remove t.requests id
            | _ -> ())
          w.request_id;
        if List.is_empty f.waiters && Option.is_none f.outcome then
          f.abort <- true
      end;
      List.length f.waiters)

let in_flight t = locked t (fun () -> Hashtbl.length t.flights)
let depth t = locked t (fun () -> t.queued)
let running t = locked t (fun () -> t.running)
let load t = locked t (fun () -> t.queued + t.running)
let ewma t = locked t (fun () -> t.ewma)

let live t = locked t (fun () -> live_locked t)

let close t =
  let handles =
    locked t (fun () ->
        t.closed <- true;
        Condition.broadcast t.work;
        (* a spawn decided before the close records its handle, or gives
           its slot back, before the close can join it *)
        while List.exists (fun w -> Option.is_none w.handle) t.pool do
          Condition.wait t.wake t.mutex
        done;
        List.filter_map (fun w -> w.handle) t.pool)
  in
  (* every caller joins, so each returns only after the drain *)
  List.iter Domain.join handles
