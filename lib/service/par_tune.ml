open Amos

let default_jobs () = min 8 (Domain.recommended_domain_count ())

(* One retry per task: transient failures (an OOM blip, a flaky
   measurement harness) heal silently; a deterministic failure raises
   identically twice and is reported once.  [Invalid_argument] is a
   contract violation (e.g. an empty input reaching [Explore.tune]) that
   no retry can repair — it is captured on the first raise, never
   retried.  [Explore.Aborted] is a deliberate teardown, not a failure:
   retrying would restart the very search being cancelled, so it too is
   captured immediately (the skeleton's merge re-raises it). *)
let attempt f x =
  match f x with
  | v -> Ok v
  | exception (Invalid_argument _ as e) -> Error e
  | exception (Explore.Aborted as e) -> Error e
  | exception _first -> ( match f x with v -> Ok v | exception e -> Error e)

(* Order-preserving parallel map: [jobs - 1] spawned domains plus the
   calling one pull task indices from a shared atomic counter and write
   into a per-index slot, so the merge order — and therefore the final
   result — is independent of scheduling.  The work units themselves are
   deterministic (their RNG streams derive from the mapping, not the
   worker), which is what makes this fan-out safe.  At [jobs = 1] the
   calling domain runs the same loop alone.

   Every task's outcome is captured as a [Result] inside the worker, so
   one raising task can neither kill its worker domain nor discard the
   slots its siblings already filled; the spawned domains are joined in
   a [Fun.protect] finalizer, so no exit path leaks a running domain.
   Once a task fails with [Explore.Aborted] no further index is handed
   out: the exploration is being torn down, and a unit started now
   would only build its engine and score a population for nobody. *)
let parallel_map_result ~jobs f arr =
  let n = Array.length arr in
  let jobs = max 1 (min jobs n) in
  let results =
    Array.make n (Error (Failure "Par_tune: task never executed"))
  in
  let next = Atomic.make 0 and aborted = Atomic.make false in
  let rec worker () =
    if not (Atomic.get aborted) then begin
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r = attempt f arr.(i) in
        (match r with
        | Error Explore.Aborted -> Atomic.set aborted true
        | _ -> ());
        results.(i) <- r;
        worker ()
      end
    end
  in
  let domains = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
  Fun.protect ~finally:(fun () -> List.iter Domain.join domains) worker;
  results

(* [Explore]'s two-phase skeleton runs its work units on this fan-out *)
let fanout jobs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  {
    Explore.workers = jobs;
    map = (fun f units -> parallel_map_result ~jobs f units);
  }

let tune_with ?jobs ~screen ~search ~mappings () =
  if mappings = [] then invalid_arg "Par_tune.tune: no mappings";
  Explore.tune_units (fanout jobs)
    ~must_keep:(fun _ -> false)
    ~cut:None ~screen ~search mappings

let tune ?jobs ?population ?generations ?measure_top
    ?(initial_population = []) ?model ?observe ?progress ~rng ~accel ~mappings
    () =
  if mappings = [] && initial_population = [] then
    invalid_arg "Par_tune.tune: no mappings";
  Explore.tune_on (fanout jobs) ?population ?generations ?measure_top
    ~initial_population ?model ?observe ?progress ~rng ~accel ~mappings ()

(* Persistent bounded worker pool: long-lived domains pulling thunks
   from a capacity-bounded queue.  Unlike [parallel_map_result] (which
   spawns and joins domains per call) the pool amortises domain startup
   across a server's lifetime and gives callers an admission-control
   primitive: [try_submit] refuses instead of queueing unboundedly. *)
module Pool = struct
  type t = {
    mutex : Mutex.t;
    not_empty : Condition.t;  (* queue gained work, or stopping *)
    idle : Condition.t;  (* queue empty and nothing running *)
    queue : (unit -> unit) Queue.t;
    capacity : int;
    mutable workers : unit Domain.t list;
    mutable running : int;  (* tasks currently executing *)
    mutable stopping : bool;
  }

  let rec worker_loop t =
    Mutex.lock t.mutex;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.not_empty t.mutex
    done;
    if Queue.is_empty t.queue then (* stopping, queue drained *)
      Mutex.unlock t.mutex
    else begin
      let task = Queue.pop t.queue in
      t.running <- t.running + 1;
      Mutex.unlock t.mutex;
      (* the task owns its error handling; a raise here would kill the
         worker domain, so the contract is enforced by a last-resort
         swallow rather than trusted *)
      (try task () with _ -> ());
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      if Queue.is_empty t.queue && t.running = 0 then
        Condition.broadcast t.idle;
      Mutex.unlock t.mutex;
      worker_loop t
    end

  let create ~workers ~capacity =
    let t =
      {
        mutex = Mutex.create ();
        not_empty = Condition.create ();
        idle = Condition.create ();
        queue = Queue.create ();
        capacity = max 1 capacity;
        workers = [];
        running = 0;
        stopping = false;
      }
    in
    t.workers <-
      List.init (max 1 workers) (fun _ ->
          Domain.spawn (fun () -> worker_loop t));
    t

  let try_submit t task =
    Mutex.lock t.mutex;
    let accepted =
      (not t.stopping) && Queue.length t.queue < t.capacity
    in
    if accepted then begin
      Queue.push task t.queue;
      Condition.signal t.not_empty
    end;
    Mutex.unlock t.mutex;
    accepted

  let load t =
    Mutex.lock t.mutex;
    let l = Queue.length t.queue + t.running in
    Mutex.unlock t.mutex;
    l

  let shutdown ?(drain = true) t =
    Mutex.lock t.mutex;
    if drain then
      while not (Queue.is_empty t.queue && t.running = 0) do
        Condition.wait t.idle t.mutex
      done
    else Queue.clear t.queue;
    t.stopping <- true;
    Condition.broadcast t.not_empty;
    Mutex.unlock t.mutex;
    List.iter Domain.join t.workers;
    t.workers <- []
end
