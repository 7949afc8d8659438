(* Deterministic (non-property) tests of cross-accelerator plan
   migration, the cache-driven migration flow, and the Par_tune
   failure-isolation fix that migration leans on. *)

open Amos
module Ops = Amos_workloads.Ops
module Migrate = Amos_service.Migrate
module Par_tune = Amos_service.Par_tune
module Plan_cache = Amos_service.Plan_cache
module Fingerprint = Amos_service.Fingerprint

let budget =
  { Fingerprint.population = 6; generations = 2; measure_top = 2; seed = 7 }

let tune_plan accel op =
  Explore.tune ~population:budget.Fingerprint.population
    ~generations:budget.Fingerprint.generations
    ~measure_top:budget.Fingerprint.measure_top ~accel
    ~mappings:(Compiler.mappings accel op) ()

let plan_text_of accel op =
  let c = (tune_plan accel op).Explore.best.Explore.candidate in
  Plan_io.save c.Explore.mapping c.Explore.schedule

let seed_describes o =
  List.map
    (fun (s : Explore.candidate) -> Mapping.describe s.Explore.mapping)
    o.Migrate.seeds

let measure accel (c : Explore.candidate) =
  Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
    (Codegen.lower accel c.Explore.mapping c.Explore.schedule)

let migrate_tests =
  [
    Alcotest.test_case "direct-v100-to-a100" `Quick (fun () ->
        (* both expose wmma: the plan re-binds wholesale *)
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let source = Accelerator.v100 () and target = Accelerator.a100 () in
        let o =
          Migrate.migrate ~target ~op ~source_accel:source.Accelerator.name
            ~source_fingerprint:"fp0" ~plan_text:(plan_text_of source op) ()
        in
        Alcotest.(check bool) "direct" true o.Migrate.direct;
        Alcotest.(check int) "one seed" 1 (List.length o.Migrate.seeds);
        List.iter
          (fun (s : Explore.candidate) ->
            Alcotest.(check bool) "seed validates on target" true
              (Matching.validate s.Explore.mapping.Mapping.matching
              && Schedule.validate s.Explore.mapping s.Explore.schedule))
          o.Migrate.seeds);
    Alcotest.test_case "structural-a100-to-ascend" `Quick (fun () ->
        (* no shared intrinsic name: ranked structural transfer *)
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let source = Accelerator.a100 ()
        and target = Accelerator.ascend_like () in
        let text = plan_text_of source op in
        let o =
          Migrate.migrate ~target ~op ~source_accel:source.Accelerator.name
            ~source_fingerprint:"fp1" ~plan_text:text ()
        in
        Alcotest.(check bool) "structural" false o.Migrate.direct;
        Alcotest.(check bool) "has seeds" true (o.Migrate.seeds <> []);
        Alcotest.(check bool) "at most max_seeds" true
          (List.length o.Migrate.seeds <= 4);
        List.iter
          (fun (s : Explore.candidate) ->
            Alcotest.(check bool) "seed validates on target" true
              (Matching.validate s.Explore.mapping.Mapping.matching
              && Schedule.validate s.Explore.mapping s.Explore.schedule))
          o.Migrate.seeds;
        (* same plan text in, same seeds out *)
        let o' =
          Migrate.migrate ~target ~op ~source_accel:source.Accelerator.name
            ~source_fingerprint:"fp1" ~plan_text:text ()
        in
        Alcotest.(check (list string)) "deterministic" (seed_describes o)
          (seed_describes o'));
    Alcotest.test_case "seeded-tune-never-worse-than-seeds" `Quick (fun () ->
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let source = Accelerator.v100 ()
        and target = Accelerator.ascend_like () in
        let o =
          Migrate.migrate ~target ~op ~source_accel:source.Accelerator.name
            ~source_fingerprint:"fp2" ~plan_text:(plan_text_of source op) ()
        in
        Alcotest.(check bool) "has seeds" true (o.Migrate.seeds <> []);
        let seed_best =
          List.fold_left
            (fun acc s -> Float.min acc (measure target s))
            infinity o.Migrate.seeds
        in
        let r =
          Explore.tune ~population:4 ~generations:1 ~measure_top:1
            ~initial_population:o.Migrate.seeds
            ~accel:target ~mappings:(Compiler.mappings target op) ()
        in
        Alcotest.(check bool) "best <= best seed" true
          (r.Explore.best.Explore.measured <= seed_best +. 1e-12));
  ]

let cache_tests =
  [
    Alcotest.test_case "lookup-migratable-and-from-cache" `Quick (fun () ->
        let dir = Temp.name "amos-migrate" in
        let cache = Plan_cache.create ~dir () in
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let a100 = Accelerator.a100 () and v100 = Accelerator.v100 () in
        let c = (tune_plan a100 op).Explore.best.Explore.candidate in
        Plan_cache.store cache ~accel:a100 ~op ~budget
          (Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule));
        (* same accel: nothing to migrate from *)
        Alcotest.(check int) "no same-accel source" 0
          (List.length (Plan_cache.lookup_migratable cache ~accel:a100 ~op ~budget));
        (* other accel, same op+budget: found *)
        (match Plan_cache.lookup_migratable cache ~accel:v100 ~op ~budget with
        | [ (_, src, text) ] ->
            Alcotest.(check string) "source accel" "A100" src;
            Alcotest.(check bool) "carries plan text" true
              (Plan_io.load v100 op text <> None)
        | l -> Alcotest.failf "expected one source, got %d" (List.length l));
        (* a second cache over the same dir sees it too (journal replay) *)
        let cache2 = Plan_cache.create ~dir () in
        (match Migrate.from_cache cache2 ~accel:v100 ~op ~budget with
        | None -> Alcotest.fail "from_cache found nothing"
        | Some o ->
            Alcotest.(check string) "source accel" "A100" o.Migrate.source_accel;
            Alcotest.(check bool) "direct (shared wmma)" true o.Migrate.direct;
            Alcotest.(check bool) "has seeds" true (o.Migrate.seeds <> []));
        (* different budget: different op_key, no source *)
        let budget' = { budget with Fingerprint.generations = 9 } in
        Alcotest.(check int) "budget mismatch" 0
          (List.length
             (Plan_cache.lookup_migratable cache2 ~accel:v100 ~op
                ~budget:budget')));
    Alcotest.test_case "pre-migration-entries-are-skipped" `Quick (fun () ->
        (* an entry written before the opkey header existed must be
           ignored by the migration scan but still load normally *)
        let dir = Temp.dir "amos-migrate" in
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let a100 = Accelerator.a100 () and v100 = Accelerator.v100 () in
        let c = (tune_plan a100 op).Explore.best.Explore.candidate in
        let text = Plan_io.save c.Explore.mapping c.Explore.schedule in
        let fp = Fingerprint.key ~accel:a100 ~op ~budget in
        let content =
          Printf.sprintf
            "amos-plan-cache 1\nfingerprint %s\nop %s\naccel A100\nkind spatial\n---\n%s"
            fp (Fingerprint.operator op) text
        in
        let oc = open_out (Filename.concat dir (fp ^ ".plan")) in
        output_string oc content;
        close_out oc;
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644
            (Filename.concat dir "journal.txt") in
        output_string oc ("add " ^ fp ^ "\n");
        close_out oc;
        (* opening imports the entry into the plan log *)
        let cache = Plan_cache.create ~dir () in
        Alcotest.(check int) "legacy entry not migratable" 0
          (List.length (Plan_cache.lookup_migratable cache ~accel:v100 ~op ~budget));
        (* ...but a plain same-accelerator lookup still serves it *)
        Alcotest.(check bool) "legacy entry still loads" true
          (Plan_cache.lookup cache ~accel:a100 ~op ~budget <> None));
    Alcotest.test_case "provenance-survives-store" `Quick (fun () ->
        let dir = Temp.name "amos-migrate" in
        let cache = Plan_cache.create ~dir () in
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let a100 = Accelerator.a100 () in
        let c = (tune_plan a100 op).Explore.best.Explore.candidate in
        let prov =
          { Plan_io.source_accel = "V100"; source_fingerprint = "deadbeef" }
        in
        Plan_cache.store ~provenance:prov cache ~accel:a100 ~op ~budget
          (Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule));
        let fp = Fingerprint.key ~accel:a100 ~op ~budget in
        match Plan_io.provenance (List.assoc fp (Log_records.entries dir)) with
        | Some p ->
            Alcotest.(check string) "accel" "V100" p.Plan_io.source_accel;
            Alcotest.(check string) "fingerprint" "deadbeef"
              p.Plan_io.source_fingerprint
        | None -> Alcotest.fail "stored entry lost its provenance line");
  ]

let par_tune_tests =
  [
    Alcotest.test_case "invalid-argument-never-retried" `Quick (fun () ->
        (* contract: Invalid_argument is a caller bug — surface the first
           raise; transient-looking failures get exactly one retry *)
        let counts = Array.make 3 0 in
        let f i =
          counts.(i) <- counts.(i) + 1;
          match i with
          | 0 -> invalid_arg "caller bug"
          | 1 -> failwith "flaky"
          | _ -> i * 10
        in
        let r = Par_tune.parallel_map_result ~jobs:1 f [| 0; 1; 2 |] in
        (match r.(0) with
        | Error (Invalid_argument _) -> ()
        | _ -> Alcotest.fail "expected Invalid_argument");
        (match r.(1) with
        | Error (Failure _) -> ()
        | _ -> Alcotest.fail "expected Failure");
        (match r.(2) with
        | Ok 20 -> ()
        | _ -> Alcotest.fail "expected Ok 20");
        Alcotest.(check int) "Invalid_argument attempted once" 1 counts.(0);
        Alcotest.(check int) "Failure attempted twice" 2 counts.(1);
        Alcotest.(check int) "success attempted once" 1 counts.(2));
    Alcotest.test_case "empty-tune-raises-immediately" `Quick (fun () ->
        let accel = Accelerator.v100 () in
        Alcotest.check_raises "Par_tune"
          (Invalid_argument "Par_tune.tune: no mappings") (fun () ->
            ignore
              (Par_tune.tune ~jobs:2 ~accel ~mappings:[] ()));
        Alcotest.check_raises "Explore"
          (Invalid_argument "Explore.tune: no mappings") (fun () ->
            ignore (Explore.tune ~accel ~mappings:[] ())));
    Alcotest.test_case "seeds-without-mappings-tune" `Quick (fun () ->
        (* mappings = [] is fine when seeds are supplied *)
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let source = Accelerator.v100 () and target = Accelerator.a100 () in
        let o =
          Migrate.migrate ~target ~op ~source_accel:source.Accelerator.name
            ~source_fingerprint:"fp3" ~plan_text:(plan_text_of source op) ()
        in
        let r =
          Par_tune.tune ~jobs:2 ~population:4 ~generations:1 ~measure_top:1
            ~initial_population:o.Migrate.seeds
            ~accel:target ~mappings:[] ()
        in
        Alcotest.(check bool) "found a plan" true
          (r.Explore.best.Explore.measured < infinity));
    Alcotest.test_case "seeded-par-tune-jobs-invariant" `Quick (fun () ->
        (* seeds do not break the jobs-count determinism contract *)
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let source = Accelerator.v100 ()
        and target = Accelerator.ascend_like () in
        let o =
          Migrate.migrate ~target ~op ~source_accel:source.Accelerator.name
            ~source_fingerprint:"fp4" ~plan_text:(plan_text_of source op) ()
        in
        let run jobs =
          Par_tune.tune ~jobs ~population:6 ~generations:2 ~measure_top:2
            ~initial_population:o.Migrate.seeds
            ~accel:target ~mappings:(Compiler.mappings target op) ()
        in
        let r1 = run 1 and r4 = run 4 in
        Alcotest.(check (float 0.)) "same best" r1.Explore.best.Explore.measured
          r4.Explore.best.Explore.measured;
        Alcotest.(check int) "same evaluations" r1.Explore.evaluations
          r4.Explore.evaluations;
        Alcotest.(check string) "same mapping"
          (Mapping.describe r1.Explore.best.Explore.candidate.Explore.mapping)
          (Mapping.describe r4.Explore.best.Explore.candidate.Explore.mapping));
  ]

let suites =
  [
    ("migrate", migrate_tests);
    ("migrate.cache", cache_tests);
    ("migrate.par_tune", par_tune_tests);
  ]
