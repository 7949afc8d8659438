open Amos
module Nd = Amos_tensor.Nd
module Rng = Amos_tensor.Rng
module Ops = Amos_workloads.Ops
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Par_tune = Amos_service.Par_tune
module Batch_compile = Amos_service.Batch_compile
module Migrate = Amos_service.Migrate
module Resnet = Amos_workloads.Resnet

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let small_budget =
  {
    Fingerprint.population = 4;
    generations = 2;
    measure_top = 2;
    seed = 42;
  }

(* --- fingerprints --------------------------------------------------- *)

let fingerprint_tests =
  [
    Alcotest.test_case "name-independent" `Quick (fun () ->
        let accel = toy_accel () in
        let a = Ops.conv2d ~name:"alpha" ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let b = Ops.conv2d ~name:"beta" ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        Alcotest.(check string) "same structure, same key"
          (Fingerprint.key ~accel ~op:a ~budget:small_budget)
          (Fingerprint.key ~accel ~op:b ~budget:small_budget));
    Alcotest.test_case "shape-sensitive" `Quick (fun () ->
        let accel = toy_accel () in
        let a = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let b = Ops.conv2d ~n:2 ~c:2 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 () in
        Alcotest.(check bool) "different shapes differ" false
          (Fingerprint.key ~accel ~op:a ~budget:small_budget
          = Fingerprint.key ~accel ~op:b ~budget:small_budget));
    Alcotest.test_case "budget-and-seed-sensitive" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        let k b = Fingerprint.key ~accel ~op ~budget:b in
        Alcotest.(check bool) "seed changes key" false
          (k small_budget = k { small_budget with Fingerprint.seed = 43 });
        Alcotest.(check bool) "population changes key" false
          (k small_budget = k { small_budget with Fingerprint.population = 8 }));
    Alcotest.test_case "accelerator-sensitive" `Quick (fun () ->
        let op = Ops.gemm ~m:16 ~n:16 ~k:16 () in
        Alcotest.(check bool) "toy vs a100 differ" false
          (Fingerprint.key ~accel:(toy_accel ()) ~op ~budget:small_budget
          = Fingerprint.key ~accel:(Accelerator.a100 ()) ~op
              ~budget:small_budget));
  ]

(* --- plan cache ------------------------------------------------------ *)

let tune_value accel op =
  match Explore.tune_op ~population:4 ~generations:2 ~accel op with
  | Some result ->
      let c = result.Explore.best.Explore.candidate in
      Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule)
  | None -> Plan_cache.Scalar

let cache_tests =
  [
    Alcotest.test_case "memory-roundtrip" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let cache = Plan_cache.create () in
        Alcotest.(check bool) "initially absent" true
          (Plan_cache.lookup cache ~accel ~op ~budget:small_budget = None);
        Plan_cache.store cache ~accel ~op ~budget:small_budget
          (tune_value accel op);
        (match Plan_cache.lookup cache ~accel ~op ~budget:small_budget with
        | Some (Plan_cache.Spatial (m, sched)) ->
            Alcotest.(check bool) "validates" true
              (Schedule.validate m sched)
        | Some Plan_cache.Scalar -> Alcotest.fail "expected spatial"
        | None -> Alcotest.fail "expected hit");
        let s = Plan_cache.stats cache in
        Alcotest.(check int) "one hit" 1 s.Plan_cache.hits;
        Alcotest.(check int) "one miss" 1 s.Plan_cache.misses);
    Alcotest.test_case "disk-persistence-across-reopen" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let dir = Temp.dir "amos-cache" in
        let cache = Plan_cache.create ~dir () in
        Plan_cache.store cache ~accel ~op ~budget:small_budget
          (tune_value accel op);
        (* a second cache value over the same directory must see it *)
        let reopened = Plan_cache.create ~dir () in
        Alcotest.(check int) "one live entry" 1 (Plan_cache.disk_size reopened);
        (match Plan_cache.lookup reopened ~accel ~op ~budget:small_budget with
        | Some (Plan_cache.Spatial _) -> ()
        | _ -> Alcotest.fail "expected persistent hit");
        Plan_cache.clear reopened;
        Alcotest.(check int) "cleared" 0 (Plan_cache.disk_size reopened);
        Alcotest.(check bool) "miss after clear" true
          (Plan_cache.lookup reopened ~accel ~op ~budget:small_budget = None));
    Alcotest.test_case "lru-capacity-bounded" `Quick (fun () ->
        let accel = toy_accel () in
        let cache = Plan_cache.create ~mem_capacity:2 () in
        List.iter
          (fun k ->
            let op = Ops.gemm ~m:4 ~n:4 ~k () in
            Plan_cache.store cache ~accel ~op ~budget:small_budget
              Plan_cache.Scalar)
          [ 2; 4; 6 ];
        Alcotest.(check int) "memory stays at capacity" 2
          (Plan_cache.mem_size cache);
        Alcotest.(check int) "one eviction" 1
          (Plan_cache.stats cache).Plan_cache.lru_evictions);
    Alcotest.test_case "wrong-operator-never-served" `Quick (fun () ->
        (* two ops whose fingerprints differ: the cache must not cross
           the streams even though both entries live side by side *)
        let accel = toy_accel () in
        let a = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let b = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        let cache = Plan_cache.create () in
        Plan_cache.store cache ~accel ~op:a ~budget:small_budget
          (tune_value accel a);
        (match Plan_cache.lookup cache ~accel ~op:b ~budget:small_budget with
        | None -> ()
        | Some _ -> Alcotest.fail "gemm must miss on conv's entry"));
  ]

(* --- parallel tuning -------------------------------------------------- *)

let c5 () = Resnet.config (Resnet.by_label "C5")

let describe_best (r : Explore.result) =
  let c = r.Explore.best.Explore.candidate in
  ( Mapping.describe c.Explore.mapping,
    Schedule.describe c.Explore.mapping c.Explore.schedule )

(* bit-identity of two results: best plan, history and failures *)
let check_same_result (a : Explore.result) (b : Explore.result) =
  Alcotest.(check (pair string string))
    "same best plan" (describe_best a) (describe_best b);
  Alcotest.(check bool) "same best times" true
    (Float.equal a.Explore.best.Explore.measured b.Explore.best.Explore.measured
    && Float.equal a.Explore.best.Explore.predicted
         b.Explore.best.Explore.predicted);
  Alcotest.(check int) "same evaluations" a.Explore.evaluations
    b.Explore.evaluations;
  Alcotest.(check bool) "same history" true
    (List.equal
       (fun (p, m) (p', m') -> Float.equal p p' && Float.equal m m')
       a.Explore.history b.Explore.history);
  Alcotest.(check (list (pair string string)))
    "same failures" a.Explore.failures b.Explore.failures

(* a tune's result with the progress frames it reported, in order *)
let with_frames tune =
  let frames = ref [] in
  let r = tune (fun p -> frames := p :: !frames) in
  (r, List.rev !frames)

let show_frame (p : Explore.progress) =
  Printf.sprintf "generation %d, %d evaluations, best %h predicted, %h measured"
    p.Explore.pr_generation p.Explore.pr_evaluations
    p.Explore.pr_best_predicted p.Explore.pr_best_measured

(* the shape every progress stream must have *)
let check_frames ~screen_evals (r : Explore.result)
    (frames : Explore.progress list) =
  Alcotest.(check bool) "some frames" true (frames <> []);
  Alcotest.(check (list int))
    "generations step by one"
    (List.init (List.length frames) (fun i -> i + 1))
    (List.map (fun (p : Explore.progress) -> p.Explore.pr_generation) frames);
  let evals =
    List.map (fun (p : Explore.progress) -> p.Explore.pr_evaluations) frames
  in
  Alcotest.(check (list int))
    "evaluations never decrease" (List.sort compare evals) evals;
  let first = List.hd frames and last = List.hd (List.rev frames) in
  Alcotest.(check bool)
    (Printf.sprintf "first frame %d counts the screen's %d"
       first.Explore.pr_evaluations screen_evals)
    true
    (first.Explore.pr_evaluations >= screen_evals);
  Alcotest.(check bool)
    (Printf.sprintf "last frame %d within the total %d"
       last.Explore.pr_evaluations r.Explore.evaluations)
    true
    (last.Explore.pr_evaluations <= r.Explore.evaluations)

let par_tune_tests =
  [
    Alcotest.test_case "jobs-1-and-4-identical" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let mappings = Explore.mappings accel op in
        let run jobs =
          Par_tune.tune ~jobs ~population:4 ~generations:2
            ~accel ~mappings ()
        in
        let r1 = run 1 and r4 = run 4 in
        let b1 = r1.Explore.best and b4 = r4.Explore.best in
        Alcotest.(check string) "same mapping"
          (Mapping.describe b1.Explore.candidate.Explore.mapping)
          (Mapping.describe b4.Explore.candidate.Explore.mapping);
        Alcotest.(check string) "same schedule"
          (Schedule.describe b1.Explore.candidate.Explore.mapping
             b1.Explore.candidate.Explore.schedule)
          (Schedule.describe b4.Explore.candidate.Explore.mapping
             b4.Explore.candidate.Explore.schedule);
        Alcotest.(check (float 0.)) "same measured time" b1.Explore.measured
          b4.Explore.measured;
        Alcotest.(check int) "same evaluation count" r1.Explore.evaluations
          r4.Explore.evaluations;
        Alcotest.(check int) "same history length"
          (List.length r1.Explore.history)
          (List.length r4.Explore.history));
    Alcotest.test_case "jobs-1-matches-sequential-explore" `Quick (fun () ->
        (* one skeleton under both front-ends: at one job the parallel
           tuner is the sequential one, result and progress stream alike *)
        let accel = Accelerator.a100 () in
        let op = c5 () in
        let mappings = Compiler.mappings accel op in
        let seq, seq_frames =
          with_frames (fun progress ->
              Explore.tune ~population:6 ~generations:3 ~progress ~accel
                ~mappings ())
        in
        let par, par_frames =
          with_frames (fun progress ->
              Par_tune.tune ~jobs:1 ~population:6 ~generations:3 ~progress
                ~accel ~mappings ())
        in
        check_same_result seq par;
        Alcotest.(check (list string))
          "same progress frames"
          (List.map show_frame seq_frames)
          (List.map show_frame par_frames);
        check_frames ~screen_evals:(7 * List.length mappings) par par_frames;
        (* whatever the fan-out (one job, two, or the population split),
           generations step by one and the evaluation count never falls:
           it starts above the screen's spend and ends within the total *)
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let mappings = Compiler.mappings accel op in
        List.iter
          (fun jobs ->
            let r, frames =
              with_frames (fun progress ->
                  Par_tune.tune ~jobs ~population:4 ~generations:2
                    ~measure_top:2 ~progress ~accel
                    ~mappings ())
            in
            check_frames ~screen_evals:(7 * List.length mappings) r frames)
          [ 1; 2; List.length mappings + 2 ]);
    Alcotest.test_case "population-split-deterministic" `Quick (fun () ->
        (* more jobs than mappings forces the population-split fan-out;
           the pinned contract is that for a fixed jobs count the
           sharded search is run-to-run deterministic and still yields a
           validating plan *)
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let mappings = Compiler.mappings accel op in
        Alcotest.(check bool) "op has mappings" true (mappings <> []);
        let jobs = List.length mappings + 2 in
        let run () =
          Par_tune.tune ~jobs ~population:4 ~generations:2 ~measure_top:2
            ~accel ~mappings ()
        in
        let r1 = run () and r2 = run () in
        let b1 = r1.Explore.best and b2 = r2.Explore.best in
        Alcotest.(check string) "same mapping"
          (Mapping.describe b1.Explore.candidate.Explore.mapping)
          (Mapping.describe b2.Explore.candidate.Explore.mapping);
        Alcotest.(check string) "same schedule"
          (Schedule.describe b1.Explore.candidate.Explore.mapping
             b1.Explore.candidate.Explore.schedule)
          (Schedule.describe b2.Explore.candidate.Explore.mapping
             b2.Explore.candidate.Explore.schedule);
        Alcotest.(check (float 0.)) "same measured time" b1.Explore.measured
          b2.Explore.measured;
        Alcotest.(check int) "same evaluation count" r1.Explore.evaluations
          r2.Explore.evaluations;
        Alcotest.(check bool) "split-path winner validates" true
          (Schedule.validate b1.Explore.candidate.Explore.mapping
             b1.Explore.candidate.Explore.schedule));
    Alcotest.test_case "abort-through-progress-stops-every-fan-out" `Quick
      (fun () ->
        (* a progress hook raising [Explore.Aborted] at frame [n] ends
           the tune on every fan-out: the exception escapes instead of a
           result (so no failure is recorded), and no work unit starts
           after it, so each other worker reaches at most one more
           generation boundary *)
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let mappings = Explore.mappings accel op in
        let n = 3 in
        let check_abort name ~workers tune =
          (* the hook fires under the tuner's lock *)
          let calls = ref 0 in
          let progress _ =
            incr calls;
            if !calls >= n then raise Explore.Aborted
          in
          (match tune ~progress with
          | r ->
              Alcotest.failf "%s: the aborted tune returned, %d failures" name
                (List.length r.Explore.failures)
          | exception Explore.Aborted -> ());
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d hook calls, at most %d + %d - 1" name
               !calls n workers)
            true
            (!calls >= n && !calls <= n + workers - 1)
        in
        check_abort "sequential" ~workers:1 (fun ~progress ->
            Explore.tune ~population:4 ~generations:2 ~measure_top:2
              ~progress ~accel ~mappings ());
        List.iter
          (fun jobs ->
            check_abort (Printf.sprintf "jobs %d" jobs) ~workers:jobs
              (fun ~progress ->
                Par_tune.tune ~jobs ~population:4 ~generations:2
                  ~measure_top:2 ~progress ~accel
                  ~mappings ()))
          [ 1; 2; List.length mappings + 2 ]);
  ]

(* --- pinned tuning outcomes -------------------------------------------- *)

(* The discrete outcome of one tune, pinned across commits so a change to
   the search skeleton (the population split, seed merging, the model
   cuts) cannot move a result unnoticed.  No floats: the pins hold on any
   platform's libm. *)
type pin = {
  pin_mapping : string;
  pin_schedule : string;
  pin_evaluations : int;
  pin_history : int;
  pin_failures : int;
}

let check_pin name pin (r : Explore.result) =
  let mapping, schedule = describe_best r in
  Alcotest.(check string) (name ^ ": mapping") pin.pin_mapping mapping;
  Alcotest.(check string) (name ^ ": schedule") pin.pin_schedule schedule;
  Alcotest.(check (list int))
    (name ^ ": evaluations, history, failures")
    [ pin.pin_evaluations; pin.pin_history; pin.pin_failures ]
    [
      r.Explore.evaluations;
      List.length r.Explore.history;
      List.length r.Explore.failures;
    ]

let c5_pin =
  {
    pin_mapping =
      "[i1, i2, r1] <- [(n*784 + p*28 + q) mod 8, k mod 32, (c*9 + r*3 + s) mod 16]";
    pin_schedule =
      "splits[i1.t:98x8x2 i2.t:1x4x1 r1.t:1x1x72] stage=4 unroll=2 vec=true";
    pin_evaluations = 3529;
    pin_history = 48;
    pin_failures = 0;
  }

let split_pin =
  {
    pin_mapping =
      "[i1, i2, r1] <- [q mod 2, k mod 2, (r*2 + s) mod 2]";
    pin_schedule =
      "splits[n:1x2x1 p:2x2x1 c:1x1x2 i1.t:2x1x1 i2.t:2x1x1 r1.t:1x1x2] stage=3 unroll=8 vec=true";
    pin_evaluations = 437;
    pin_history = 64;
    pin_failures = 0;
  }

let seeded_one_shard_pin =
  {
    pin_mapping =
      "[i1, i2, r1] <- [i mod 16, j mod 16, r mod 16]";
    pin_schedule =
      "splits[i1.t:2x1x1 i2.t:2x1x1 r1.t:1x1x2] stage=2 unroll=4 vec=true";
    pin_evaluations = 126;
    pin_history = 10;
    pin_failures = 0;
  }

let seeded_two_shards_pin =
  {
    pin_mapping =
      "[i1, i2, r1] <- [i mod 16, j mod 16, r mod 16]";
    pin_schedule =
      "splits[i1.t:2x1x1 i2.t:2x1x1 r1.t:1x1x2] stage=2 unroll=4 vec=true";
    pin_evaluations = 126;
    pin_history = 20;
    pin_failures = 0;
  }

let cut_model_pin =
  {
    pin_mapping =
      "[i1, i2, r1] <- [(n*784 + p*28 + q) mod 16, k mod 16, (c*3 + s) mod 16]";
    pin_schedule =
      "splits[r:1x1x3 i1.t:49x8x2 i2.t:2x1x4 r1.t:1x1x24] stage=3 unroll=8 vec=true";
    pin_evaluations = 1405;
    pin_history = 14;
    pin_failures = 0;
  }

(* the identity correction with both pruning cuts set *)
let cut_model =
  {
    Explore.sm_correct = (fun _ p -> p);
    sm_measure_cut = Some 3.0;
    sm_survivor_cut = Some 1.2;
  }

let pin_tests =
  [
    Alcotest.test_case "pinned-results" `Quick (fun () ->
        let a100 = Accelerator.a100 () in
        let c5 = c5 () in
        let c5_mappings = Compiler.mappings a100 c5 in
        check_pin "Explore.tune a100/C5" c5_pin
          (Explore.tune ~accel:a100 ~mappings:c5_mappings ());
        List.iter
          (fun jobs ->
            check_pin
              (Printf.sprintf "Par_tune.tune a100/C5 jobs %d" jobs)
              c5_pin
              (Par_tune.tune ~jobs ~accel:a100 ~mappings:c5_mappings ()))
          [ 1; 2 ];
        (* fewer mappings than jobs: the population split *)
        let toy = toy_accel () in
        let conv = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let toy_mappings = Compiler.mappings toy conv in
        check_pin "population split, toy conv" split_pin
          (Par_tune.tune
             ~jobs:(List.length toy_mappings + 2)
             ~population:4 ~generations:2 ~measure_top:2
             ~accel:toy ~mappings:toy_mappings ());
        (* migrated seeds on a small mapping space: jobs 7 still runs one
           shard per survivor, jobs 12 two *)
        let gemm = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let v100 = Accelerator.v100 () in
        let source =
          Explore.tune ~population:6 ~generations:2 ~measure_top:2 ~accel:v100
            ~mappings:(Compiler.mappings v100 gemm) ()
        in
        let c = source.Explore.best.Explore.candidate in
        let o =
          Migrate.migrate ~target:a100 ~op:gemm ~source_accel:"V100"
            ~source_fingerprint:"pin"
            ~plan_text:(Plan_io.save c.Explore.mapping c.Explore.schedule)
            ()
        in
        let seeded jobs =
          Par_tune.tune ~jobs ~population:6 ~generations:2 ~measure_top:2
            ~initial_population:o.Migrate.seeds
            ~accel:a100 ~mappings:(Compiler.mappings a100 gemm) ()
        in
        check_pin "seeded GEMM jobs 7" seeded_one_shard_pin (seeded 7);
        check_pin "seeded GEMM jobs 12" seeded_two_shards_pin (seeded 12);
        (* a screen model with both cuts, sequential and fanned out *)
        let cut_tune = function
          | None ->
              Explore.tune ~population:6 ~generations:2 ~model:cut_model
                ~accel:a100 ~mappings:c5_mappings ()
          | Some jobs ->
              Par_tune.tune ~jobs ~population:6 ~generations:2
                ~model:cut_model ~accel:a100 ~mappings:c5_mappings ()
        in
        List.iter
          (fun jobs ->
            check_pin
              (Printf.sprintf "cut model, jobs %s"
                 (Option.fold ~none:"-" ~some:string_of_int jobs))
              cut_model_pin (cut_tune jobs))
          [ None; Some 2 ]);
  ]

(* --- batch compile ---------------------------------------------------- *)

let nd_bit_identical a b =
  Nd.shape a = Nd.shape b
  && begin
       let ok = ref true in
       for i = 0 to Nd.num_elems a - 1 do
         if not (Float.equal (Nd.get_flat a i) (Nd.get_flat b i)) then
           ok := false
       done;
       !ok
     end

let batch_tests =
  [
    Alcotest.test_case "warm-recompile-zero-evaluations" `Quick (fun () ->
        let accel = toy_accel () in
        let g = Graph.mini_cnn ~channels:2 () in
        let cache = Plan_cache.create ~dir:(Temp.dir "amos-batch") () in
        let cold =
          Batch_compile.compile ~jobs:2 ~budget:small_budget ~cache accel g
        in
        Alcotest.(check bool) "cold run tunes" true
          (cold.Batch_compile.report.Batch_compile.evaluations > 0);
        let warm =
          Batch_compile.compile ~jobs:2 ~budget:small_budget ~cache accel g
        in
        Alcotest.(check int) "warm run: zero tuner evaluations" 0
          warm.Batch_compile.report.Batch_compile.evaluations;
        Alcotest.(check int) "warm run: zero misses" 0
          warm.Batch_compile.report.Batch_compile.cache_misses;
        (* bit-identical simulator results *)
        let rng = Rng.create 99 in
        let input = Nd.random rng (Graph.input_shape g) in
        let weights = Graph.random_weights rng g in
        let out_cold = Batch_compile.run cold ~input ~weights in
        let out_warm = Batch_compile.run warm ~input ~weights in
        Alcotest.(check bool) "bit-identical outputs" true
          (nd_bit_identical out_cold out_warm);
        (* and still correct vs the reference *)
        let expected = Graph.run_reference g ~input ~weights in
        Alcotest.(check bool) "matches reference" true
          (Nd.approx_equal ~tol:1e-3 expected out_cold));
    Alcotest.test_case "within-run-dedup" `Quick (fun () ->
        (* the same conv repeated: one tuning, repeats served for free *)
        let accel = toy_accel () in
        let c = 2 in
        let b = Graph.Builder.create () in
        let out =
          List.fold_left
            (fun src name ->
              Graph.Builder.op b
                (Ops.conv2d ~name ~n:1 ~c ~k:c ~p:4 ~q:4 ~r:1 ~s:1 ())
                src)
            (Graph.Builder.input b [ 1; c; 4; 4 ])
            [ "a"; "b"; "c" ]
        in
        let g = Graph.Builder.finish b ~output:out in
        let cache = Plan_cache.create () in
        let t =
          Batch_compile.compile ~jobs:1 ~budget:small_budget ~cache accel g
        in
        let r = t.Batch_compile.report in
        Alcotest.(check int) "three stages" 3 r.Batch_compile.tensor_stages;
        Alcotest.(check int) "one unique" 1 r.Batch_compile.unique_stages;
        Alcotest.(check int) "one miss" 1 r.Batch_compile.cache_misses;
        Alcotest.(check int) "two repeats" 2 r.Batch_compile.cache_hits);
    Alcotest.test_case "corrupt-entry-evicted-and-retuned" `Quick (fun () ->
        let accel = toy_accel () in
        let g = Graph.mini_cnn ~channels:2 () in
        let dir = Temp.dir "amos-corrupt" in
        let cache = Plan_cache.create ~dir () in
        let _cold =
          Batch_compile.compile ~jobs:1 ~budget:small_budget ~cache accel g
        in
        (* vandalize every record's entry, digest kept matching: the
           header still looks right, so detection has to come from
           Plan_io re-validation *)
        Log_records.map_entries dir (fun fp _ ->
            Printf.sprintf
              "amos-plan-cache 1\nfingerprint %s\nkind spatial\n---\ngarbage\n"
              fp);
        (* a fresh cache over the same directory must detect the damage,
           evict, and re-tune instead of crashing or serving garbage *)
        let cache2 = Plan_cache.create ~dir () in
        let again =
          Batch_compile.compile ~jobs:1 ~budget:small_budget ~cache:cache2
            accel g
        in
        Alcotest.(check bool) "re-tuned" true
          (again.Batch_compile.report.Batch_compile.evaluations > 0);
        Alcotest.(check bool) "corruption recorded" true
          ((Plan_cache.stats cache2).Plan_cache.corrupt_evictions > 0);
        (* the rewritten entries must now be healthy *)
        let warm =
          Batch_compile.compile ~jobs:1 ~budget:small_budget ~cache:cache2
            accel g
        in
        Alcotest.(check int) "healthy after re-tune" 0
          warm.Batch_compile.report.Batch_compile.evaluations);
  ]

(* --- re-binding a stored plan ----------------------------------------- *)

(* [Ops.gemm] and the same operator re-parsed with [i, j] renamed to
   [ii, jj]: one fingerprint, since fingerprints identify iterations by
   position *)
let gemm_and_renamed () =
  let op = Ops.gemm ~m:256 ~n:256 ~k:256 () in
  let renamed =
    Amos_ir.Dsl.parse_exn ~name:"renamed"
      (Str.global_replace (Str.regexp "\\b\\([ij]\\)\\b") "\\1\\1"
         (Amos_ir.Dsl.print op))
  in
  (op, renamed)

let iter_names (op : Amos_ir.Operator.t) =
  List.map (fun (it : Amos_ir.Iter.t) -> it.Amos_ir.Iter.name) op.Amos_ir.Operator.iters

(* a hit bound to [op]: a spatial plan whose mapping reads [op] itself *)
let check_bound name cache accel op =
  match Plan_cache.lookup cache ~accel ~op ~budget:small_budget with
  | Some (Plan_cache.Spatial (m, sched)) ->
      Alcotest.(check bool) (name ^ ": bound to the operator passed in") true
        (m.Mapping.matching.Matching.view.Mac_view.op == op);
      Alcotest.(check bool) (name ^ ": Algorithm 1") true
        (Matching.validate m.Mapping.matching);
      Alcotest.(check bool) (name ^ ": schedule") true (Schedule.validate m sched)
  | Some Plan_cache.Scalar -> Alcotest.fail (name ^ ": expected a spatial plan")
  | None -> Alcotest.fail (name ^ ": expected a hit")

let rebind_tests =
  [
    Alcotest.test_case "renamed-operator-hits-both-tiers" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op, renamed = gemm_and_renamed () in
        Alcotest.(check (list string)) "renamed" [ "ii"; "jj"; "r" ] (iter_names renamed);
        Alcotest.(check string) "one fingerprint"
          (Fingerprint.key ~accel ~op ~budget:small_budget)
          (Fingerprint.key ~accel ~op:renamed ~budget:small_budget);
        (* each operator tunes; the other looks it up, in memory and then
           from the disk tier of a fresh handle, in both orders *)
        List.iter
          (fun (tuned, other) ->
            let dir = Temp.dir "amos-rebind" in
            let cache = Plan_cache.create ~dir () in
            ignore (Batch_compile.tune_op ~budget:small_budget ~cache accel tuned);
            check_bound "memory, other" cache accel other;
            check_bound "memory, tuned" cache accel tuned;
            let fresh = Plan_cache.create ~dir () in
            check_bound "disk, other" fresh accel other;
            check_bound "disk then memory, tuned" fresh accel tuned;
            List.iter
              (fun c ->
                Alcotest.(check int) "no corrupt eviction" 0
                  (Plan_cache.stats c).Plan_cache.corrupt_evictions)
              [ cache; fresh ];
            Alcotest.(check int) "the record is kept" 1 (Plan_cache.disk_size fresh);
            Alcotest.(check bool) "no del record" false
              (List.exists
                 (fun l -> String.length l > 4 && String.sub l 0 4 = "del ")
                 (Log_records.lines dir)))
          [ (op, renamed); (renamed, op) ]);
    Alcotest.test_case "memory-hit-binds-the-operator-passed-in" `Quick
      (fun () ->
        (* a structurally identical operator built apart from the stored
           one: the hit re-binds to it, not to the operator it was stored
           for *)
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let twin = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let cache = Plan_cache.create () in
        Plan_cache.store cache ~accel ~op ~budget:small_budget (tune_value accel op);
        check_bound "twin" cache accel twin;
        check_bound "stored" cache accel op;
        check_bound "twin again" cache accel twin;
        Alcotest.(check int) "three hits" 3 (Plan_cache.stats cache).Plan_cache.hits);
    Alcotest.test_case "imported-out-of-range-src-perm-is-corrupt" `Quick
      (fun () ->
        (* a version-1 entry file is imported whatever it holds; one whose
           plan names a source operand that does not exist must be evicted
           as corrupt, not raise out of the lookup *)
        let accel = toy_accel () in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        let m = List.hd (Compiler.mappings accel op) in
        List.iter
          (fun perm ->
            let dir = Temp.dir "amos-v1-perm" in
            Plan_cache_oracle.store
              (Plan_cache_oracle.create ~dir ())
              ~accel ~op ~budget:small_budget
              (Plan_cache.Spatial (m, Schedule.default m));
            let fp = Fingerprint.key ~accel ~op ~budget:small_budget in
            let file = Filename.concat dir (fp ^ ".plan") in
            let text = In_channel.with_open_bin file In_channel.input_all in
            Out_channel.with_open_bin file (fun oc ->
                output_string oc
                  (Str.global_replace (Str.regexp "src_perm [0-9,]*")
                     ("src_perm " ^ perm) text));
            let cache = Plan_cache.create ~dir () in
            Alcotest.(check bool) (perm ^ ": misses") true
              (Plan_cache.lookup cache ~accel ~op ~budget:small_budget = None);
            Alcotest.(check int) (perm ^ ": counted corrupt") 1
              (Plan_cache.stats cache).Plan_cache.corrupt_evictions;
            Alcotest.(check int) (perm ^ ": evicted") 0 (Plan_cache.disk_size cache))
          [ "0,5"; "-1,0" ]);
  ]

let suites =
  [
    ("service.fingerprint", fingerprint_tests);
    ("service.cache", cache_tests);
    ("service.rebind", rebind_tests);
    ("service.par_tune", par_tune_tests);
    ("service.tune_pins", pin_tests);
    ("service.batch", batch_tests);
  ]
