open Amos
module Networks = Amos_workloads.Networks

let log_src =
  Logs.Src.create "amos.service" ~doc:"AMOS plan service degradation events"

module Log = (val Logs.src_log log_src : Logs.LOG)

type source =
  | Hit
  | Tuned
  | Repeat
  | Degraded
  | Known_bad

type stage_plan = {
  node : Graph.node_id;
  op : Amos_ir.Operator.t;
  fingerprint : string;
  value : Plan_cache.value;
  source : source;
}

type report = {
  tensor_stages : int;
  unique_stages : int;
  cache_hits : int;
  cache_misses : int;
  evaluations : int;
  tuning_seconds : float;
  degraded_stages : int;
  known_bad_stages : int;
      (** stages served scalar straight from a persisted known-bad
          marker, without re-attempting the tuning that already failed *)
}

type t = {
  accel : Accelerator.t;
  graph : Graph.t;
  plans : stage_plan list;
  report : report;
}

let scalar_seconds = Compiler.tuned_scalar_seconds

let tune_fresh ?(seeds = []) ?model ?observe ?progress ~jobs
    ~(budget : Fingerprint.budget) accel op =
  let result =
    match Explore.mappings accel op with
    | [] when seeds = [] -> None
    | mappings ->
        Some
          (Par_tune.tune ?jobs ~population:budget.Fingerprint.population
             ~generations:budget.Fingerprint.generations
             ~measure_top:budget.Fingerprint.measure_top
             ~initial_population:seeds ?model ?observe ?progress ~accel
             ~mappings ())
  in
  let value =
    match Compiler.decide accel op result with
    | Compiler.Spatial p ->
        let c = p.Explore.candidate in
        Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule)
    | Compiler.Scalar _ -> Plan_cache.Scalar
  in
  (value, match result with Some r -> r.Explore.evaluations | None -> 0)

(* one compile run: a within-run memo over the cache, with counters *)
type ctx = {
  cache : Plan_cache.t;
  budget : Fingerprint.budget;
  jobs : int option;
  model : Explore.screen_model option;
  observe : (fingerprint:string -> Explore.observation -> unit) option;
  memo : (string, Plan_cache.value) Hashtbl.t;
  badlist : Badlist.t option;
      (** persistent known-bad markers; [None] for memory-only caches,
          whose degradations stay per-run as before *)
  mutable hits : int;
  mutable misses : int;
  mutable evaluations : int;
  mutable tuning_seconds : float;
  mutable degraded : int;
  mutable known_bad : int;
}

let make_ctx ?jobs ?(budget = Fingerprint.default_budget) ?model ?observe
    cache =
  let badlist =
    Option.map
      (fun dir -> Badlist.load ~fs:(Plan_cache.fs_handle cache) ~dir ())
      (Plan_cache.dir cache)
  in
  {
    cache;
    budget;
    jobs;
    model;
    observe;
    memo = Hashtbl.create 16;
    badlist;
    hits = 0;
    misses = 0;
    evaluations = 0;
    tuning_seconds = 0.;
    degraded = 0;
    known_bad = 0;
  }

(* Graceful degradation: a stage whose cache lookup, tuning, or plan
   store raises must not abort the whole network compile.  A failing
   lookup falls through to tuning; failing tuning falls back to the
   scalar plan (marked [Degraded], never cached, so a later run
   retries); a failing store keeps the freshly tuned plan in memory
   and moves on. *)
let tune_cached ctx accel op =
  let fingerprint = Fingerprint.key ~accel ~op ~budget:ctx.budget in
  let op_name = op.Amos_ir.Operator.name in
  let value, source =
    match Hashtbl.find_opt ctx.memo fingerprint with
    | Some v ->
        ctx.hits <- ctx.hits + 1;
        (v, Repeat)
    | None -> (
        let cached =
          match Plan_cache.lookup ctx.cache ~accel ~op ~budget:ctx.budget with
          | v -> v
          (* a simulated process death must stay fatal or fault-plan
             tests would "survive" their own crash *)
          | exception (Fs_io.Crashed _ as e) -> raise e
          | exception e ->
              Log.warn (fun m ->
                  m "cache lookup failed for %s (%s); tuning instead" op_name
                    (Printexc.to_string e));
              None
        in
        match cached with
        | Some v ->
            ctx.hits <- ctx.hits + 1;
            (v, Hit)
        | None
          when match ctx.badlist with
               | Some b -> Badlist.mem b fingerprint
               | None -> false ->
            (* a previous run already paid for this failure: the marker
               says tuning degraded to scalar, so serve the scalar plan
               without re-attempting (clear the marker to retry) *)
            ctx.known_bad <- ctx.known_bad + 1;
            Log.info (fun m ->
                m "%s is marked known-bad; scalar fallback without re-tuning"
                  op_name);
            (Plan_cache.Scalar, Known_bad)
        | None -> (
            ctx.misses <- ctx.misses + 1;
            let t0 = Unix.gettimeofday () in
            let outcome =
              match
                tune_fresh ?model:ctx.model
                  ?observe:
                    (Option.map (fun f -> f ~fingerprint) ctx.observe)
                  ~jobs:ctx.jobs ~budget:ctx.budget accel op
              with
              | v, evals -> Ok (v, evals)
              | exception (Fs_io.Crashed _ as e) -> raise e
              | exception e -> Error e
            in
            let dt = Unix.gettimeofday () -. t0 in
            ctx.tuning_seconds <- ctx.tuning_seconds +. dt;
            match outcome with
            | Ok (v, evals) ->
                ctx.evaluations <- ctx.evaluations + evals;
                (try
                   Plan_cache.store ctx.cache ~accel ~op ~budget:ctx.budget
                     ~tuning_seconds:dt v
                 with
                | Fs_io.Crashed _ as e -> raise e
                | e ->
                    Log.warn (fun m ->
                        m "plan store failed for %s (%s); continuing uncached"
                          op_name (Printexc.to_string e)));
                (v, Tuned)
            | Error e ->
                ctx.degraded <- ctx.degraded + 1;
                Log.warn (fun m ->
                    m "tuning failed for %s (%s); degrading to scalar plan"
                      op_name (Printexc.to_string e));
                (* persist the decision so the next cold compile skips
                   straight to scalar instead of re-failing the tune *)
                (match ctx.badlist with
                | Some b -> (
                    try
                      Badlist.mark b ~fingerprint
                        ~reason:(op_name ^ ": " ^ Printexc.to_string e)
                    with Unix.Unix_error _ -> ())
                | None -> ());
                (Plan_cache.Scalar, Degraded)))
  in
  Hashtbl.replace ctx.memo fingerprint value;
  (fingerprint, value, source)

let report_of ctx ~tensor_stages =
  {
    tensor_stages;
    unique_stages = Hashtbl.length ctx.memo;
    cache_hits = ctx.hits;
    cache_misses = ctx.misses;
    evaluations = ctx.evaluations;
    tuning_seconds = ctx.tuning_seconds;
    degraded_stages = ctx.degraded;
    known_bad_stages = ctx.known_bad;
  }

let tune_op ?jobs ?budget ?model ?observe ~cache accel op =
  let ctx = make_ctx ?jobs ?budget ?model ?observe cache in
  let _, value, source = tune_cached ctx accel op in
  (value, source)

let compile ?jobs ?budget ~cache accel graph =
  let ctx = make_ctx ?jobs ?budget cache in
  let plans =
    List.map
      (fun (node, op) ->
        let fingerprint, value, source = tune_cached ctx accel op in
        { node; op; fingerprint; value; source })
      (Graph.tensor_ops graph)
  in
  let report = report_of ctx ~tensor_stages:(List.length plans) in
  { accel; graph; plans; report }

let run t ~input ~weights =
  Graph.run_with_plans t.accel t.graph ~input ~weights
    ~plan_for:(fun node _op ->
      match List.find_opt (fun p -> p.node = node) t.plans with
      | Some { value = Plan_cache.Spatial (m, sched); _ } -> Some (m, sched)
      | Some { value = Plan_cache.Scalar; _ } | None -> None)

let plan_seconds accel op = function
  | Plan_cache.Spatial (m, sched) ->
      Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
        (Codegen.lower accel m sched)
  | Plan_cache.Scalar -> scalar_seconds accel op

(* Spatial layer times are re-derived from the plan (the structural
   estimate the tuner measured), so a warm compile needs no tuner at
   all. *)
let compile_network ?jobs ?budget ~cache accel (net : Networks.t) =
  let ctx = make_ctx ?jobs ?budget cache in
  let network =
    Compiler.price_network accel
      (fun op ->
        let _, value, _ = tune_cached ctx accel op in
        ( (match value with Plan_cache.Spatial _ -> true | Plan_cache.Scalar -> false),
          plan_seconds accel op value ))
      net
  in
  ( network,
    report_of ctx ~tensor_stages:(List.length (Networks.tensor_ops net)) )

let describe_report r =
  Printf.sprintf
    "%d tensor stages (%d unique): %d served from cache, %d tuned (%d \
     evaluations, %.2fs tuning)%s"
    r.tensor_stages r.unique_stages r.cache_hits r.cache_misses r.evaluations
    r.tuning_seconds
    ((if r.degraded_stages > 0 then
        Printf.sprintf ", %d DEGRADED to scalar" r.degraded_stages
      else "")
    ^
    if r.known_bad_stages > 0 then
      Printf.sprintf ", %d known-bad (scalar without re-tuning)"
        r.known_bad_stages
    else "")
