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
    ?(initial_population = []) ?model ?observe ?progress ~accel ~mappings () =
  if mappings = [] && initial_population = [] then
    invalid_arg "Par_tune.tune: no mappings";
  Explore.tune_on (fanout jobs) ?population ?generations ?measure_top
    ~initial_population ?model ?observe ?progress ~accel ~mappings ()
