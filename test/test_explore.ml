open Amos
module Ops = Amos_workloads.Ops
module Rng = Amos_tensor.Rng

let metric_tests =
  [
    Alcotest.test_case "pairwise-perfect" `Quick (fun () ->
        let samples = [ (1., 10.); (2., 20.); (3., 30.) ] in
        Alcotest.(check (float 1e-9)) "1.0" 1.0 (Explore.pairwise_accuracy samples));
    Alcotest.test_case "pairwise-inverted" `Quick (fun () ->
        let samples = [ (3., 10.); (2., 20.); (1., 30.) ] in
        Alcotest.(check (float 1e-9)) "0.0" 0.0 (Explore.pairwise_accuracy samples));
    Alcotest.test_case "pairwise-single" `Quick (fun () ->
        Alcotest.(check (float 1e-9)) "1.0" 1.0
          (Explore.pairwise_accuracy [ (1., 1.) ]));
    Alcotest.test_case "topk-recall-perfect" `Quick (fun () ->
        let samples = List.init 10 (fun i -> (float_of_int i, float_of_int i)) in
        Alcotest.(check (float 1e-9)) "1.0" 1.0
          (Explore.topk_recall ~top_rate:0.4 samples));
    Alcotest.test_case "topk-recall-anti" `Quick (fun () ->
        let samples = List.init 10 (fun i -> (float_of_int (9 - i), float_of_int i)) in
        Alcotest.(check (float 1e-9)) "0.0" 0.0
          (Explore.topk_recall ~top_rate:0.3 samples));
  ]

let tune_tests =
  [
    Alcotest.test_case "tune-improves-over-default" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Amos_workloads.Resnet.config (Amos_workloads.Resnet.by_label "C5") in
        let mappings = Compiler.mappings accel op in
        let default_best =
          List.fold_left
            (fun acc m ->
              let k = Codegen.lower accel m (Schedule.default m) in
              Float.min acc
                (Spatial_sim.Machine.estimate_seconds accel.Accelerator.config k))
            infinity mappings
        in
        let result = Explore.tune ~accel ~mappings () in
        Alcotest.(check bool) "tuned <= best default" true
          (result.Explore.best.Explore.measured <= default_best));
    Alcotest.test_case "tune-deterministic-under-seed" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:512 ~n:512 ~k:512 () in
        let run () = Compiler.tune accel op |> Compiler.seconds in
        Alcotest.(check (float 1e-12)) "same result" (run ()) (run ()));
    Alcotest.test_case "tune-empty-mappings-rejected" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        match Explore.tune ~accel ~mappings:[] () with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "sample-pairs-finite" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Amos_workloads.Resnet.config (Amos_workloads.Resnet.by_label "C8") in
        let rng = Rng.create 3 in
        let mappings = Compiler.mappings accel op in
        let samples = Explore.sample ~n:20 ~rng ~accel ~mappings in
        Alcotest.(check int) "20 samples" 20 (List.length samples);
        Alcotest.(check bool) "model correlates (acc > 0.5)" true
          (Explore.pairwise_accuracy
             (List.filter (fun (p, m) -> p < infinity && m < infinity) samples)
          > 0.5));
  ]

let perf_model_tests =
  [
    Alcotest.test_case "levels-monotone" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:256 ~n:256 ~k:256 () in
        match Compiler.mappings accel op with
        | m :: _ ->
            let k = Codegen.lower accel m (Schedule.default m) in
            let l = Perf_model.predict accel.Accelerator.config k in
            Alcotest.(check bool) "L3 >= L2 >= L1 >= L0" true
              (l.Perf_model.l3 >= l.Perf_model.l2
              && l.Perf_model.l2 >= l.Perf_model.l1
              && l.Perf_model.l1 >= l.Perf_model.l0)
        | [] -> Alcotest.fail "no mapping");
    Alcotest.test_case "model-infinity-on-overflow" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:256 ~n:256 ~k:256 () in
        match Compiler.mappings accel op with
        | m :: _ ->
            let k = Codegen.lower accel m (Schedule.default m) in
            let cfg =
              { accel.Accelerator.config with
                Spatial_sim.Machine_config.shared_capacity_bytes = 1 }
            in
            Alcotest.(check bool) "infinite" true
              (Perf_model.predict_seconds cfg k = infinity)
        | [] -> Alcotest.fail "no mapping");
    Alcotest.test_case "bigger-problem-bigger-prediction" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let t m_sz =
          let op = Ops.gemm ~m:m_sz ~n:512 ~k:512 () in
          match Compiler.mappings accel op with
          | m :: _ ->
              let k = Codegen.lower accel m (Schedule.default m) in
              Perf_model.predict_seconds accel.Accelerator.config k
          | [] -> Alcotest.fail "no mapping"
        in
        Alcotest.(check bool) "monotone" true (t 2048 > t 256));
  ]

let suites =
  [
    ("explore.metrics", metric_tests);
    ("explore.tune", tune_tests);
    ("explore.perf_model", perf_model_tests);
  ]

let trajectory_tests =
  [
    Alcotest.test_case "trajectory-monotone" `Quick (fun () ->
        let history = [ (0., 2e-3); (0., 1e-3); (0., 5e-3); (0., 5e-4) ] in
        let curve = Explore.trajectory ~flops:1e9 history in
        Alcotest.(check int) "4 steps" 4 (List.length curve);
        let rec monotone = function
          | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
          | [ _ ] | [] -> true
        in
        Alcotest.(check bool) "non-decreasing" true (monotone curve);
        Alcotest.(check (float 1e-3)) "final gflops" 2000.0
          (snd (List.nth curve 3)));
    Alcotest.test_case "trajectory-empty" `Quick (fun () ->
        Alcotest.(check int) "empty" 0
          (List.length (Explore.trajectory ~flops:1e9 [])));
  ]

(* A seed plan whose mapping is a structurally equal copy of a space
   mapping, not the same value, joins that mapping: the space keeps its
   length (a sequential fan-out that counts its work units sees the same
   screen phase), and the seeded search spends exactly one extra
   evaluation per seed schedule.  A merge that added the copy as a
   mapping of its own would screen it, and search it, on top. *)
let seed_tests =
  [
    Alcotest.test_case "seed-copy-joins-its-space-mapping" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:64 ~n:48 ~k:32 () in
        let mappings = Compiler.mappings accel op in
        let tune initial_population =
          let phases = ref [] in
          let fan =
            {
              Explore.workers = 1;
              map =
                (fun f units ->
                  phases := Array.length units :: !phases;
                  Array.map (fun u -> Ok (f u)) units);
            }
          in
          let r =
            Explore.tune_on fan ~population:4 ~generations:2 ~measure_top:2
              ~initial_population ~accel ~mappings ()
          in
          (r, List.rev !phases)
        in
        let plain, plain_phases = tune [] in
        let best = plain.Explore.best.Explore.candidate in
        let copy =
          List.find
            (fun m ->
              Explore.mapping_key m = Explore.mapping_key best.Explore.mapping)
            (Compiler.mappings accel op)
        in
        Alcotest.(check bool) "a copy, not the same value" true
          (copy != best.Explore.mapping);
        let seeds =
          [ { Explore.mapping = copy; schedule = best.Explore.schedule } ]
        in
        let seeded, seeded_phases = tune seeds in
        Alcotest.(check int) "screened the space alone"
          (List.length mappings) (List.hd seeded_phases);
        Alcotest.(check (list int)) "same work units" plain_phases
          seeded_phases;
        Alcotest.(check int) "one evaluation per seed schedule"
          (plain.Explore.evaluations + List.length seeds)
          seeded.Explore.evaluations;
        Alcotest.(check bool) "never worse than the seed" true
          (seeded.Explore.best.Explore.measured
          <= plain.Explore.best.Explore.measured));
  ]

let suites =
  suites
  @ [ ("explore.trajectory", trajectory_tests); ("explore.seeds", seed_tests) ]
