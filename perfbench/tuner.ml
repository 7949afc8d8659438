(* The in-process tuner, replayed for tracing.

   [replay] runs [Batch_compile]'s per-operator flow — within-compile
   memo, cache lookup, fresh tune, scalar race, store — through the
   public decomposed tuner ([Par_tune.tune_with] at one job around
   [Explore.screen_mapping] and [Explore.search_mapping]), so that with
   tracing on every phase gets a span and a count: mapping generation,
   screening, the genetic search up to its last generation tick, and the
   simulator measurements after it.  With tracing off it records
   nothing and passes no callbacks.  Workloads assert that it chooses
   exactly the plans [Batch_compile] chooses. *)

open Amos
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Batch_compile = Amos_service.Batch_compile
module Par_tune = Amos_service.Par_tune

type counts = {
  mutable mappings : int;
  mutable screen_evals : int;
  mutable search_evals : int;
  mutable survivors : int;
  mutable runs : int;  (** simulator measurements, via [?observe] *)
  mutable stages : int;
  mutable unique : int;
  mutable hits : int;
}

let counts =
  {
    mappings = 0;
    screen_evals = 0;
    search_evals = 0;
    survivors = 0;
    runs = 0;
    stages = 0;
    unique = 0;
    hits = 0;
  }

let count f = if !Trace.enabled then f ()

let fresh_value ~(budget : Fingerprint.budget) accel op =
  let on = !Trace.enabled in
  let mappings =
    Trace.span "mapping_gen" (fun () ->
        List.concat_map
          (fun intr ->
            List.map Mapping.make (Mapping_gen.generate_op op intr))
          accel.Accelerator.intrinsics)
  in
  count (fun () -> counts.mappings <- counts.mappings + List.length mappings);
  if mappings = [] then Plan_cache.Scalar
  else
    let screen m =
      Trace.span "explore.screen" (fun () ->
          let score, n = Explore.screen_mapping ~accel m in
          count (fun () -> counts.screen_evals <- counts.screen_evals + n);
          (score, n))
    in
    let search m ~score:_ ~best_score:_ =
      count (fun () -> counts.survivors <- counts.survivors + 1);
      Trace.span "explore.search" (fun () ->
          let t0 = Util.now () in
          let last_tick = ref t0 in
          let plans, n =
            Explore.search_mapping
              ?observe:(if on then Some (fun _ -> counts.runs <- counts.runs + 1) else None)
              ?tick:(if on then Some (fun _ -> last_tick := Util.now ()) else None)
              ~population:budget.Fingerprint.population
              ~generations:budget.Fingerprint.generations
              ~measure_top:budget.Fingerprint.measure_top ~accel m
          in
          Trace.record "explore.genetic" ~start:t0 ~stop:!last_tick;
          Trace.record "machine.measure" ~start:!last_tick ~stop:(Util.now ());
          count (fun () -> counts.search_evals <- counts.search_evals + n);
          (plans, n))
    in
    let result = Par_tune.tune_with ~jobs:1 ~screen ~search ~mappings () in
    let best = result.Explore.best in
    (* the same race against the scalar roofline as Batch_compile *)
    if
      best.Explore.measured < infinity
      && best.Explore.measured <= Batch_compile.scalar_seconds accel op
    then
      let c = best.Explore.candidate in
      Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule)
    else Plan_cache.Scalar

(* One compile unit (a network, or a single operator): its own memo over
   a shared cache, exactly as each [Batch_compile] entry point makes. *)
type unit_ctx = {
  cache : Plan_cache.t;
  budget : Fingerprint.budget;
  memo : (string, Plan_cache.value) Hashtbl.t;
}

let unit_ctx ~cache ~budget = { cache; budget; memo = Hashtbl.create 16 }

let next_op = ref 0

let replay ctx accel op =
  incr next_op;
  Trace.span ~rid:!next_op "operator" (fun () ->
      let budget = ctx.budget in
      let fp = Fingerprint.key ~accel ~op ~budget in
      count (fun () -> counts.stages <- counts.stages + 1);
      match Hashtbl.find_opt ctx.memo fp with
      | Some v ->
          count (fun () -> counts.hits <- counts.hits + 1);
          (fp, v)
      | None ->
          count (fun () -> counts.unique <- counts.unique + 1);
          let v =
            match
              Trace.span "plan_cache.lookup" (fun () ->
                  Plan_cache.lookup ctx.cache ~accel ~op ~budget)
            with
            | Some v ->
                count (fun () -> counts.hits <- counts.hits + 1);
                v
            | None ->
                let v, dt = Util.timed (fun () -> fresh_value ~budget accel op) in
                Trace.span "plan_cache.store" (fun () ->
                    Plan_cache.store ctx.cache ~accel ~op ~budget
                      ~tuning_seconds:dt v);
                v
          in
          Hashtbl.replace ctx.memo fp v;
          (fp, v))

(* allocation of the program's own tuning in a traced run *)
let alloc_mb = ref 0.

let counting_alloc f =
  let a0 = Gc.allocated_bytes () in
  let v = f () in
  alloc_mb := !alloc_mb +. ((Gc.allocated_bytes () -. a0) /. 1e6);
  v

(* Reference plans for daemon operators, from the program's own entry
   point.  With [trace], each operator is also replayed with tracing on,
   which must choose the same plan. *)
let reference ~budget ~trace items =
  let cache = Plan_cache.create () and replay_cache = Plan_cache.create () in
  List.map
    (fun (it : Inputs.item) ->
      let tune () = fst (Batch_compile.tune_op ~jobs:1 ~budget ~cache it.accel it.op) in
      if not trace then (it, tune ())
      else begin
        let v = counting_alloc tune in
        let _, tv =
          Trace.with_tracing (fun () ->
              replay (unit_ctx ~cache:replay_cache ~budget) it.accel it.op)
        in
        Util.attempt
          (Inputs.plan_text v = Inputs.plan_text tv)
          (lazy (it.op.Amos_ir.Operator.name ^ ": the traced replay chose another plan"));
        (it, v)
      end)
    items
