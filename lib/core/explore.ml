module Rng = Amos_tensor.Rng

type candidate = {
  mapping : Mapping.t;
  schedule : Schedule.t;
}

type plan = {
  candidate : candidate;
  predicted : float;
  measured : float;
}

type result = {
  best : plan;
  evaluations : int;
  history : (float * float) list;
  failures : (string * string) list;
}

(* A calibrated screen model (see [Amos_learn]): a correction applied to
   every analytic prediction during screening and ranking, plus optional
   pruning ratios that let a trusted model spend strictly fewer simulator
   measurements.  The hook lives here (not in the learn library) so the
   core tuner stays free of a dependency on the calibration layer; the
   identity hook — correction that returns its input bit-for-bit, both
   cuts [None] — reproduces the default path exactly. *)
type screen_model = {
  sm_correct : Spatial_sim.Kernel.summary -> float -> float;
      (* [sm_correct summary predicted] -> corrected predicted seconds *)
  sm_measure_cut : float option;
      (* per mapping, measure the best-ranked candidate plus one
         representative per corrected-prediction band of this relative
         width (>= 1.), never beyond the ratio of the best; candidates
         inside an already-measured band are model-indistinguishable
         from its representative *)
  sm_survivor_cut : float option;
      (* drop full-search mappings whose corrected screen score exceeds
         this ratio of the best survivor's (>= 1.; seeded mappings and
         the best survivor always stay) *)
}

(* One measured data point, reported through [?observe]: the kernel-free
   summary the model screened with, the {e uncorrected} analytic
   prediction (calibration always fits against the raw model, never
   against its own output), and the simulator measurement.  The callback
   is a side channel: it sees every simulator measurement in exploration
   order and cannot perturb the search. *)
type observation = {
  ob_summary : Spatial_sim.Kernel.summary;
  ob_predicted : float;
  ob_measured : float;
}

(* Cooperative abort: a per-generation hook ([?progress], or [?tick] on
   [search_mapping]) raises this at a generation boundary of the genetic
   search.  The exception deliberately escapes [tune]'s per-mapping
   failure containment — an aborted exploration has no result, partial
   or otherwise. *)
exception Aborted

(* One per-generation snapshot of an in-flight exploration, reported
   through [?progress].  Latencies use [infinity] for "nothing yet":
   the wire layer renders unknowns as absent fields.  Like [?observe],
   the callback is a side channel — it cannot perturb RNG streams,
   rankings or results. *)
type progress = {
  pr_generation : int;
  pr_best_predicted : float;
  pr_best_measured : float;
  pr_evaluations : int;
}

(* A stable per-mapping seed: the schedule search for a given mapping
   explores the same schedule sequence no matter which compiler invokes
   it or what other mappings surround it.  Exploring a superset of
   mappings therefore can only help -- the property the paper's
   comparison against fixed-mapping baselines rests on.  It is also what
   makes the search embarrassingly parallel: every per-mapping work unit
   derives its RNG stream from the mapping itself, so any partition of
   the mappings over workers produces identical results. *)
let mapping_seed (m : Mapping.t) =
  (* the description hash is cached on the mapping itself: a genetic
     search calls this once but a population split re-derives shard
     streams from it repeatedly, and [Mapping.describe] rebuilds the
     description string on every call.  [Hashtbl.hash] is non-negative,
     so -1 is a safe "not yet computed" sentinel; racing domains can
     only write the same deterministic value. *)
  if m.Mapping.seed_memo >= 0 then m.Mapping.seed_memo
  else begin
    let h =
      Hashtbl.hash
        ( Mapping.describe m,
          m.Mapping.matching.Matching.intr.Intrinsic.name,
          0x5eed )
    in
    m.Mapping.seed_memo <- h;
    h
  end

(* Structural identity of a mapping: iteration ids are globally unique, so
   two mappings built at different times can only be compared through
   their description plus intrinsic — the same identity [mapping_seed]
   hashes, kept exact here. *)
let mapping_key (m : Mapping.t) =
  (Mapping.describe m, m.Mapping.matching.Matching.intr.Intrinsic.name)

(* Fold an [initial_population] of seed plans into a mapping space:
   returns the extended mapping list (a seed mapping joins the space when
   no space mapping has its structural key), the per-mapping seed
   schedules, and the is-seeded predicate.  Seeds attach by structural
   key, computed once per mapping and only when there are seeds; both
   answers then go by physical identity on the returned list, which every
   fan-out builds its work units from. *)
let merge_seed_population ~mappings initial_population =
  match initial_population with
  | [] -> (mappings, (fun _ -> []), fun _ -> false)
  | _ ->
      let seed_tbl = Hashtbl.create 8 in
      let seed_mappings = ref [] in
      List.iter
        (fun c ->
          let k = mapping_key c.mapping in
          let prior = Hashtbl.find_opt seed_tbl k in
          if Option.is_none prior then seed_mappings := (c.mapping, k) :: !seed_mappings;
          Hashtbl.replace seed_tbl k
            (c.schedule :: Option.value prior ~default:[]))
        initial_population;
      let keyed = List.map (fun m -> (m, mapping_key m)) mappings in
      let known = Hashtbl.create 64 in
      List.iter (fun (_, k) -> Hashtbl.replace known k ()) keyed;
      let extra =
        List.filter (fun (_, k) -> not (Hashtbl.mem known k))
          (List.rev !seed_mappings)
      in
      let seeded =
        List.filter_map
          (fun (m, k) ->
            Option.map (fun l -> (m, List.rev l)) (Hashtbl.find_opt seed_tbl k))
          (keyed @ extra)
      in
      ( mappings @ List.map fst extra,
        (fun m -> Option.value (List.assq_opt m seeded) ~default:[]),
        fun m -> List.mem_assq m seeded )

(* the search's per-schedule memo, keyed on every field (see
   {!Schedule.hash}) *)
module Memo = Hashtbl.Make (Schedule)

(* One mapping's evaluation state.  The schedule-independent half of
   lowering is prepared once ({!Codegen.prepare}), the perf-model config
   constants are hoisted once ({!Perf_model.context}), and schedules are
   drawn from a precomputed {!Schedule.space}.  Every float is the one a
   full [Codegen.lower] per candidate computes, which the test suite
   checks against a recompute-everything reference. *)
type engine = {
  space : Schedule.space;
  prepared : Codegen.prepared;
  ctx : Perf_model.ctx;
  correct : Spatial_sim.Kernel.summary -> float -> float;
      (* the screen model's correction; the identity without a model *)
}

let engine ?model ~accel mapping =
  {
    space = Schedule.space mapping;
    prepared = Codegen.prepare accel mapping;
    ctx = Perf_model.context accel.Accelerator.config;
    correct = (match model with None -> fun _ p -> p | Some m -> m.sm_correct);
  }

(* predicted seconds, corrected by the screen model *)
let predict eng s =
  let summary = Codegen.summarize_prepared eng.prepared s in
  eng.correct summary (Perf_model.predict_seconds_summary eng.ctx summary)

(* [predict] memoized per schedule: converged genetic populations
   re-propose the same schedules constantly.  A screen's seven draws
   rarely repeat, so it predicts each directly. *)
let memoized eng =
  let cache = Memo.create 64 in
  fun s ->
    match Memo.find_opt cache s with
    | Some v -> v
    | None ->
        let v = predict eng s in
        Memo.add cache s v;
        v

let schedule_search ?tick ?(seeds = []) ~population ~generations ~rng ~space
    ~predict () =
  let score sched = (sched, predict sched) in
  (* seed schedules join the initial genetic population alongside the
     default and the random draws: they compete, they never replace *)
  let initial =
    (score (Schedule.default_in space) :: List.map score seeds)
    @ List.init population (fun _ -> score (Schedule.random_in space rng))
  in
  let sorted l = List.sort (fun (_, a) (_, b) -> Float.compare a b) l in
  let rec go gen pop =
    if gen = 0 then sorted pop
    else begin
      let ranked = sorted pop in
      (* the generation boundary: a [tick] raising [Aborted] here tears
         the search down before it breeds another generation *)
      (match (tick, ranked) with
      | Some f, (_, best) :: _ -> f best
      | _ -> ());
      let survivors = List.filteri (fun i _ -> i < max 2 (population / 2)) ranked in
      let parents = Array.of_list (List.map fst survivors) in
      let children =
        List.init population (fun _ ->
            let a = parents.(Rng.int rng (Array.length parents)) in
            let sched =
              if Rng.bool rng then
                Schedule.crossover rng a
                  parents.(Rng.int rng (Array.length parents))
              else Schedule.mutate_in space rng a
            in
            score sched)
      in
      go (gen - 1) (survivors @ children)
    end
  in
  go generations initial

(* phase 1 unit: screen one mapping with its default schedule and a few
   random ones.  Returns the best predicted time and the number of model
   evaluations spent; deterministic per mapping (see [mapping_seed]). *)
let screen_mapping ?model ~accel mapping =
  let eng = engine ?model ~accel mapping in
  let rng = Rng.create (mapping_seed mapping) in
  let quick =
    Schedule.default_in eng.space
    :: List.init 6 (fun _ -> Schedule.random_in eng.space rng)
  in
  let best =
    List.fold_left
      (fun acc sched -> Float.min acc (predict eng sched))
      infinity quick
  in
  (best, List.length quick)

let select_survivors ~must_keep ?cut screened =
  let by_screen =
    List.filteri
      (fun i _ -> i < 12)
      (List.sort (fun (_, a) (_, b) -> Float.compare a b) screened)
  in
  (* high-utilization mappings (im2col-style maximal fusions) always get a
     full search even when the quick screen is unlucky about them *)
  let by_utilization =
    let key (m : Mapping.t) =
      (-.m.Mapping.utilization, List.length m.Mapping.outer_sw)
    in
    List.filteri
      (fun i _ -> i < 4)
      (List.sort
         (fun ((a : Mapping.t), _) (b, _) -> compare (key a) (key b))
         screened)
  in
  let dedup_append acc extra =
    List.fold_left
      (fun acc (m, p) ->
        if List.exists (fun (m', _) -> m' == m) acc then acc
        else acc @ [ (m, p) ])
      acc extra
  in
  (* seeded (migrated) mappings always earn a full search: they compete
     with the screen winners instead of replacing them *)
  let survivors =
    dedup_append
      (dedup_append by_screen by_utilization)
      (List.filter (fun (m, _) -> must_keep m) screened)
  in
  (* a calibrated screen earns the right to prune: mappings whose
     corrected score trails the best survivor by more than [cut] never
     reach the genetic search.  The best survivor always stays (it is
     within any cut >= 1 of itself) and seeded mappings are exempt, so
     the search result can still never be worse than its seeds. *)
  match cut with
  | None -> survivors
  | Some c ->
      let best =
        List.fold_left (fun acc (_, p) -> Float.min acc p) infinity survivors
      in
      List.filter (fun (m, p) -> p <= c *. best || must_keep m) survivors

(* The best-screened survivor escapes the measure band: the winning plan
   most often lives in the top-ranked mapping, and a screen that spares
   the simulator right there risks trading the best plan away for a
   handful of measurements.  Ties with the best score all stay
   unbanded; the identity model has no band, so it passes through
   untouched. *)
let unband ?model ~best score =
  match model with
  | Some ({ sm_measure_cut = Some _; _ } as m) when score <= best ->
      Some { m with sm_measure_cut = None }
  | _ -> model

(* phase 2 unit: full genetic schedule search for one mapping, measuring
   the [measure_top] best model-ranked schedules on the simulator.
   Deterministic per mapping, like [screen_mapping].  [salt] selects an
   independent RNG stream over the same mapping: shard [i] of a
   population split across workers passes [~salt:i], so the shards
   explore disjoint schedule sequences yet each remains reproducible. *)
let search_mapping ?(salt = 0) ?(seeds = []) ?model ?observe ?tick ~population
    ~generations ~measure_top ~accel mapping =
  let eng = engine ?model ~accel mapping in
  let rng =
    Rng.create
      (if salt = 0 then mapping_seed mapping
       else Hashtbl.hash (mapping_seed mapping, salt))
  in
  let seeds = List.filter (Schedule.validate_in eng.space) seeds in
  let predict = memoized eng in
  let ranked =
    schedule_search ?tick ~seeds ~population ~generations ~rng
      ~space:eng.space ~predict ()
  in
  let top_all = List.filteri (fun i _ -> i < measure_top) ranked in
  (* a calibrated model prunes the measured set two ways.  Runners-up
     whose corrected prediction trails the best by more than the cut are
     not worth a simulator run.  And a converged population re-proposes
     near-identical schedules: a runner-up whose corrected prediction
     sits within the cut band of an already-kept candidate is
     model-indistinguishable from it, so the kept one serves as the
     band's measurement representative.  [ranked] is sorted, so the head
     is the best and always measured; with no model (or no cut) the
     measured set is exactly the [measure_top] prefix, as before. *)
  let banded, dropped =
    match model with
    | Some { sm_measure_cut = Some cut; _ } -> (
        match top_all with
        | [] -> ([], [])
        | (_, best) :: _ as all ->
            let kept = ref [] and rest = ref [] in
            let last = ref neg_infinity in
            List.iter
              (fun (s, p) ->
                if !kept = [] || (p <= cut *. best && p > cut *. !last) then begin
                  kept := (s, p) :: !kept;
                  last := p
                end
                else rest := (s, p) :: !rest)
              all;
            (List.rev !kept, List.rev !rest))
    | Some { sm_measure_cut = None; _ } | None -> (top_all, [])
  in
  let measure_plan (schedule, predicted) =
    let c = { mapping; schedule } in
    let measured =
      Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
        (Codegen.lower_prepared eng.prepared schedule)
    in
    (match observe with
    | None -> ()
    | Some f ->
        (* side channel: raw analytic prediction, never the
           model-corrected one — calibration fits the gap between the
           analytic model and the simulator *)
        let summary = Codegen.summarize_prepared eng.prepared schedule in
        f
          {
            ob_summary = summary;
            ob_predicted = Perf_model.predict_seconds_summary eng.ctx summary;
            ob_measured = measured;
          });
    { candidate = c; predicted; measured }
  in
  let banded_plans = List.map measure_plan banded in
  (* escalation: a measurement that lands more than three quarters of
     the band away from its own prediction (in log space: [cut ** 0.75],
     about 1.5 sigma of the fitted residual) proves the model is
     misranking this mapping — schedules it called indistinguishable
     differ by more than its claimed noise.  The model then forfeits its
     pruning privilege one candidate at a time: each dropped runner-up
     is measured in rank order for as long as the latest measurement is
     itself surprising, so a locally-bad fit costs a few extra
     simulator runs instead of the best plan, and a single borderline
     wobble costs exactly one. *)
  let escalated_plans =
    match model with
    | Some { sm_measure_cut = Some cut; _ } when dropped <> [] ->
        let thr = Float.pow cut 0.75 in
        let surprising p =
          p.measured > thr *. p.predicted || p.predicted > thr *. p.measured
        in
        let rec widen acc trigger = function
          | [] -> List.rev acc
          | sp :: rest ->
              if not trigger then List.rev acc
              else
                let pl = measure_plan sp in
                widen (pl :: acc) (surprising pl) rest
        in
        widen [] (List.exists surprising banded_plans) dropped
    | _ -> []
  in
  (* seed schedules are always measured, even when the model ranks them
     out of the top: the search result can then never be worse than the
     seeds it was given *)
  let already =
    List.map (fun (s, _) -> s) banded
    @ List.map (fun p -> p.candidate.schedule) escalated_plans
  in
  let seed_extras =
    List.filter_map
      (fun s ->
        if List.mem s already then None else Some (s, predict s))
      seeds
  in
  let plans = banded_plans @ escalated_plans @ List.map measure_plan seed_extras in
  (plans, population * (generations + 1) + List.length seeds)

let assemble ~failures plans ~evaluations =
  let best =
    match plans with
    | [] -> (
        match failures with
        | [] -> invalid_arg "Explore.tune: no feasible plan"
        | fs ->
            failwith
              (Printf.sprintf "Explore.tune: every mapping failed: %s"
                 (String.concat "; "
                    (List.map (fun (m, e) -> m ^ ": " ^ e) fs))))
    | p :: rest ->
        List.fold_left
          (fun acc pl -> if pl.measured < acc.measured then pl else acc)
          p rest
  in
  {
    best;
    evaluations;
    history = List.map (fun p -> (p.predicted, p.measured)) plans;
    failures;
  }

(* how a phase's work units run; the domain-parallel fan-out lives in
   [Amos_service.Par_tune], so this library stays free of domains *)
type fanout = {
  workers : int;
  map : 'a 'b. ('a -> 'b) -> 'a array -> ('b, exn) Stdlib.result array;
}

(* No retry, and an abort escapes at once: there is nothing running
   beside the unit that could still need joining. *)
let sequential =
  {
    workers = 1;
    map =
      (fun f units ->
        Array.map
          (fun u ->
            match f u with
            | v -> Ok v
            | exception (Aborted as e) -> raise e
            | exception e -> Error e)
          units);
  }

(* The skeleton under every front-end: screen each mapping on the
   fan-out, select the survivors, run the search units [units] makes of
   them on the fan-out, and merge both phases in input order, so the
   result does not depend on how the fan-out schedules.  A raising unit
   loses its mapping, reported by name, never its siblings; an abort
   captured by the fan-out re-raises here, after the fan-out returned,
   because the whole exploration is being torn down. *)
let two_phase fan ~must_keep ~cut ~screen ~units mappings =
  let evaluations = ref 0 and failures = ref [] in
  let phase tasks ok =
    let tasks = Array.of_list tasks in
    Array.iteri
      (fun i outcome ->
        let m = fst tasks.(i) in
        match outcome with
        | Ok v -> ok m v
        | Error Aborted -> raise Aborted
        | Error e ->
            failures := (Mapping.describe m, Printexc.to_string e) :: !failures)
      (fan.map (fun (_, run) -> run ()) tasks)
  in
  let screened = ref [] and plans = ref [] in
  phase
    (List.map (fun m -> (m, fun () -> screen m)) mappings)
    (fun m (score, n) ->
      evaluations := !evaluations + n;
      screened := (m, score) :: !screened);
  let survivors = select_survivors ~must_keep ?cut (List.rev !screened) in
  let best_score =
    List.fold_left (fun acc (_, s) -> Float.min acc s) infinity survivors
  in
  phase (units ~best_score survivors) (fun _ (ps, n) ->
      evaluations := !evaluations + n;
      plans := ps :: !plans);
  assemble ~failures:(List.rev !failures)
    (List.concat (List.rev !plans))
    ~evaluations:!evaluations

let tune_units fan ~must_keep ~cut ~screen ~search mappings =
  two_phase fan ~must_keep ~cut ~screen mappings ~units:(fun ~best_score ->
      List.map (fun (m, score) -> (m, fun () -> search m ~score ~best_score)))

(* Two-phase exploration mirroring the paper's flow: the analytical model
   first screens the mapping space cheaply, then each surviving mapping
   gets a full schedule search (the same budget a template compiler would
   spend on its single hand-written mapping), and the best model-ranked
   plans are measured on the simulator. *)
let tune_on fan ?(population = 16) ?(generations = 8) ?(measure_top = 3)
    ?(initial_population = []) ?model ?observe ?progress ~accel ~mappings () =
  if mappings = [] && initial_population = [] then
    invalid_arg "Explore.tune: no mappings";
  let mappings, seeds_for, is_seeded =
    merge_seed_population ~mappings initial_population
  in
  (* progress aggregation behind one lock, so every fan-out reports into
     it alike; the caller's [progress] and [observe] fire inside it, so a
     single-threaded consumer is safe as-is.  Generations count across
     mappings and shards; the evaluation count is exact for finished
     work units plus [population] per generation of units still
     searching, so it never decreases. *)
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let gens = ref 0 and evals = ref 0 in
  let best_pred = ref infinity and best_meas = ref infinity in
  let count n = locked (fun () -> evals := !evals + n) in
  let observe =
    match (observe, progress) with
    | None, None -> None
    | _ ->
        Some
          (fun ob ->
            locked (fun () ->
                if ob.ob_measured < !best_meas then best_meas := ob.ob_measured;
                Option.iter (fun f -> f ob) observe))
  in
  (* [ticked] is a unit's live estimate, replaced by its exact count
     once it finishes *)
  let tick ~population ticked =
    Option.map
      (fun f best ->
        locked (fun () ->
            incr gens;
            evals := !evals + population;
            ticked := !ticked + population;
            if best < !best_pred then best_pred := best;
            f
              {
                pr_generation = !gens;
                pr_best_predicted = !best_pred;
                pr_best_measured = !best_meas;
                pr_evaluations = !evals;
              }))
      progress
  in
  let screen m =
    let ((_, n) as r) = screen_mapping ?model ~accel m in
    count n;
    r
  in
  (* Fewer mappings than workers would leave workers idle, so each
     survivor's search splits into shards instead: shard [i] searches
     with salt [i] (an independent deterministic stream over the same
     mapping) and a slice of the population.  The result is then
     deterministic per worker count, not across worker counts. *)
  let split = fan.workers > 1 && List.length mappings < fan.workers in
  let units ~best_score survivors =
    let shards =
      if split then max 1 (fan.workers / max 1 (List.length survivors)) else 1
    in
    (* shard sizes partition the population: they differ by at most one
       and every shard holds at least one candidate *)
    let share i =
      if shards = 1 then population
      else
        max 1
          ((population / shards) + if i < population mod shards then 1 else 0)
    in
    List.concat_map
      (fun (m, score) ->
        List.init shards (fun shard ->
            let population = share shard in
            ( m,
              fun () ->
                let ticked = ref 0 in
                let ((_, n) as r) =
                  (* seeds attach to shard 0 only, so each is measured once *)
                  search_mapping ~salt:shard
                    ~seeds:(if shard = 0 then seeds_for m else [])
                    ?model:(unband ?model ~best:best_score score)
                    ?observe
                    ?tick:(tick ~population ticked)
                    ~population ~generations ~measure_top ~accel m
                in
                count (n - !ticked);
                r )))
      survivors
  in
  two_phase fan ~must_keep:is_seeded
    ~cut:(Option.bind model (fun m -> m.sm_survivor_cut))
    ~screen ~units mappings

let tune = tune_on sequential

(* Intrinsic selection is part of the search: the mapping space is the
   union over every intrinsic the accelerator exposes (e.g. the three
   WMMA shapes of Tensor Core). *)
let mappings accel op =
  List.concat_map
    (fun intr -> List.map Mapping.make (Mapping_gen.generate_op op intr))
    accel.Accelerator.intrinsics

let tune_op ?population ?generations ?measure_top ?model ?observe ~accel op =
  match mappings accel op with
  | [] -> None
  | mappings ->
      Some
        (tune ?population ?generations ?measure_top ?model ?observe ~accel
           ~mappings ())

let sample ~n ~rng ~accel ~mappings =
  if mappings = [] then invalid_arg "Explore.sample: no mappings";
  let mappings = Array.of_list mappings in
  List.init n (fun _ ->
      let mapping = mappings.(Rng.int rng (Array.length mappings)) in
      let k = Codegen.lower accel mapping (Schedule.random rng mapping) in
      ( Perf_model.predict_seconds accel.Accelerator.config k,
        Spatial_sim.Machine.estimate_seconds accel.Accelerator.config k ))

let trajectory ~flops history =
  let _, acc =
    List.fold_left
      (fun (best, acc) (_, measured) ->
        let best = Float.min best measured in
        let gflops = if best = infinity then 0. else flops /. best /. 1e9 in
        (best, (List.length acc + 1, gflops) :: acc))
      (infinity, []) history
  in
  List.rev acc

let pairwise_accuracy samples =
  let arr = Array.of_list samples in
  let n = Array.length arr in
  if n < 2 then 1.0
  else begin
    let agree = ref 0 and total = ref 0 in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let pi, mi = arr.(i) and pj, mj = arr.(j) in
        if mi <> mj then begin
          incr total;
          if (pi < pj) = (mi < mj) then incr agree
        end
      done
    done;
    if !total = 0 then 1.0 else float_of_int !agree /. float_of_int !total
  end

let topk_recall ~top_rate samples =
  let arr = Array.of_list samples in
  let n = Array.length arr in
  if n = 0 then 1.0
  else begin
    let k = max 1 (int_of_float (ceil (top_rate *. float_of_int n))) in
    let by_measured =
      List.sort (fun (_, a) (_, b) -> Float.compare a b) samples
    in
    let by_predicted =
      List.sort (fun (a, _) (b, _) -> Float.compare a b) samples
    in
    let take l = List.filteri (fun i _ -> i < k) l in
    let true_top = take by_measured and model_top = take by_predicted in
    let hits =
      List.length (List.filter (fun x -> List.memq x model_top) true_top)
    in
    float_of_int hits /. float_of_int k
  end
