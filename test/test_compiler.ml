open Amos
module Ops = Amos_workloads.Ops
module Networks = Amos_workloads.Networks
module Rng = Amos_tensor.Rng

let verify_tests =
  [
    Alcotest.test_case "verify-accepts-valid-plan" `Quick (fun () ->
        let accel =
          let base = Accelerator.v100 () in
          { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }
        in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let rng = Rng.create 51 in
        List.iter
          (fun m ->
            Alcotest.(check bool) "verifies" true
              (Compiler.verify ~rng accel m (Schedule.default m)))
          (Compiler.mappings accel op));
  ]

let tune_tests =
  [
    Alcotest.test_case "maxpool-falls-back-to-scalar" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.maxpool2d ~n:16 ~c:64 ~p:56 ~q:56 ~r:3 ~s:3 () in
        let plan = Compiler.tune accel op in
        Alcotest.(check bool) "scalar" false (Compiler.is_mapped plan);
        Alcotest.(check bool) "positive time" true (Compiler.seconds plan > 0.));
    Alcotest.test_case "gflops-consistent" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:512 ~n:512 ~k:512 () in
        let plan = Compiler.tune accel op in
        let expect =
          Amos_ir.Operator.flops op /. Compiler.seconds plan /. 1e9
        in
        Alcotest.(check (float 1e-6)) "gflops" expect (Compiler.gflops plan));
  ]

(* a whole network through the plan service on one domain and a fresh
   memory-only cache: every layer tuned as [Compiler.tune] would *)
let milstm_report accel =
  let module Fingerprint = Amos_service.Fingerprint in
  fst
    (Amos_service.Batch_compile.compile_network ~jobs:1
       ~budget:
         { Fingerprint.default_budget with
           Fingerprint.population = 6; generations = 2 }
       ~cache:(Amos_service.Plan_cache.create ()) accel
       (Networks.mi_lstm ~batch:1))

let network_tests =
  [
    Alcotest.test_case "milstm-coverage" `Quick (fun () ->
        let report = milstm_report (Accelerator.a100 ()) in
        Alcotest.(check int) "total 11" 11 report.Compiler.total_ops;
        Alcotest.(check int) "mapped 9" 9 report.Compiler.mapped_ops;
        Alcotest.(check bool) "positive latency" true
          (report.Compiler.network_seconds > 0.));
    Alcotest.test_case "network-time-additive" `Quick (fun () ->
        let report = milstm_report (Accelerator.a100 ()) in
        let sum =
          List.fold_left
            (fun acc (l : Compiler.layer_report) ->
              acc +. (float_of_int l.Compiler.mult *. l.Compiler.layer_seconds))
            0. report.Compiler.layers
        in
        Alcotest.(check (float 1e-12)) "additive" sum
          report.Compiler.network_seconds);
  ]

let suites =
  [
    ("compiler.verify", verify_tests);
    ("compiler.tune", tune_tests);
    ("compiler.network", network_tests);
  ]

let suite_wide_tests =
  [
    Alcotest.test_case "all-113-suite-ops-compile" `Slow (fun () ->
        (* every operator of the evaluation suite either lowers to a
           finite-latency spatial kernel or is exactly the class the paper
           calls inherently unsupported (max-accumulation) *)
        let accel = Accelerator.a100 () in
        List.iter
          (fun (kind, op) ->
            match Compiler.mappings accel op with
            | [] ->
                Alcotest.failf "%s (%s) has no mapping"
                  op.Amos_ir.Operator.name
                  (Amos_workloads.Ops.kind_name kind)
            | m :: _ ->
                let k = Codegen.lower accel m (Schedule.default m) in
                let t =
                  Spatial_sim.Machine.estimate_seconds accel.Accelerator.config k
                in
                let p = Perf_model.predict_seconds accel.Accelerator.config k in
                if not (t > 0. && t < infinity) then
                  Alcotest.failf "%s: bad simulator estimate"
                    op.Amos_ir.Operator.name;
                if not (p > 0. && p < infinity) then
                  Alcotest.failf "%s: bad model prediction"
                    op.Amos_ir.Operator.name)
          (Amos_workloads.Suites.operator_suite ~batch:16));
  ]

let suites = suites @ [ ("compiler.suite_wide", suite_wide_tests) ]
