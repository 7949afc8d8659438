open Amos
module Ops = Amos_workloads.Ops
module Rng = Amos_tensor.Rng
module Machine = Spatial_sim.Machine
module Mc = Spatial_sim.Machine_config

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let lowered ?(op = Ops.conv2d ~n:2 ~c:3 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 ()) ?sched ()
    =
  let accel = toy_accel () in
  let m =
    match Compiler.mappings accel op with
    | m :: _ -> m
    | [] -> Alcotest.fail "no mapping"
  in
  let sched = match sched with Some s -> s | None -> Schedule.default m in
  (accel, m, Codegen.lower accel m sched)

let estimate_tests =
  [
    Alcotest.test_case "feasible-and-positive" `Quick (fun () ->
        let accel, _, k = lowered () in
        let e = Machine.estimate accel.Accelerator.config k in
        Alcotest.(check bool) "feasible" true e.Machine.feasible;
        Alcotest.(check bool) "positive" true (e.Machine.seconds > 0.));
    Alcotest.test_case "launch-overhead-floor" `Quick (fun () ->
        let accel, _, k = lowered () in
        let e = Machine.estimate accel.Accelerator.config k in
        Alcotest.(check bool) "above launch overhead" true
          (e.Machine.seconds
          >= accel.Accelerator.config.Mc.launch_overhead_us *. 1e-6));
    Alcotest.test_case "more-cores-not-slower" `Quick (fun () ->
        let accel, _, k = lowered () in
        let cfg = accel.Accelerator.config in
        let big = { cfg with Mc.num_cores = cfg.Mc.num_cores * 4 } in
        Alcotest.(check bool) "monotone in cores" true
          ((Machine.estimate big k).Machine.seconds
          <= (Machine.estimate cfg k).Machine.seconds +. 1e-12));
    Alcotest.test_case "more-bandwidth-not-slower" `Quick (fun () ->
        let accel, _, k = lowered () in
        let cfg = accel.Accelerator.config in
        let big = { cfg with Mc.global_bandwidth_gbs = cfg.Mc.global_bandwidth_gbs *. 8. } in
        Alcotest.(check bool) "monotone in bw" true
          ((Machine.estimate big k).Machine.seconds
          <= (Machine.estimate cfg k).Machine.seconds +. 1e-12));
    Alcotest.test_case "shared-overflow-infeasible" `Quick (fun () ->
        let accel, _, k = lowered () in
        let cfg = { accel.Accelerator.config with Mc.shared_capacity_bytes = 1 } in
        let e = Machine.estimate cfg k in
        Alcotest.(check bool) "infeasible" false e.Machine.feasible;
        Alcotest.(check bool) "infinite" true (e.Machine.seconds = infinity));
    Alcotest.test_case "run-raises-on-overflow" `Quick (fun () ->
        let accel, _, k = lowered () in
        let cfg = { accel.Accelerator.config with Mc.shared_capacity_bytes = 1 } in
        match Machine.run cfg k ~inputs:[] ~out_shape:[ 1 ] with
        | _ -> Alcotest.fail "expected Infeasible"
        | exception Machine.Infeasible _ -> ());
    Alcotest.test_case "wave-quantization" `Quick (fun () ->
        let accel, m, _ = lowered () in
        (* a schedule with exactly 1 block per everything vs max blocks *)
        let serial_sched =
          let ds = Schedule.dims m in
          {
            Schedule.splits =
              Array.of_list
                (List.map (fun (d : Schedule.dim) ->
                     { Schedule.block = 1; subcore = 1; serial = d.Schedule.extent })
                   ds);
            stage_depth = 2; unroll = 4; vectorize = true;
          }
        in
        let k_serial = Codegen.lower accel m serial_sched in
        let k_par = Codegen.lower accel m (Schedule.default m) in
        let cfg = accel.Accelerator.config in
        Alcotest.(check bool) "parallel faster" true
          ((Machine.estimate cfg k_par).Machine.seconds
          < (Machine.estimate cfg k_serial).Machine.seconds));
  ]

let scalar_tests =
  [
    Alcotest.test_case "scalar-run-equals-reference" `Quick (fun () ->
        let op = Ops.gemm ~m:3 ~n:3 ~k:3 () in
        let rng = Rng.create 3 in
        let inputs = Amos_tensor.Reference.random_inputs rng op in
        let a = Spatial_sim.Scalar_backend.run op ~inputs in
        let b = Amos_tensor.Reference.run op ~inputs in
        Alcotest.(check bool) "equal" true (Amos_tensor.Nd.approx_equal a b));
    Alcotest.test_case "scalar-estimate-positive" `Quick (fun () ->
        let op = Ops.gemm ~m:128 ~n:128 ~k:128 () in
        let cfg = (Accelerator.v100 ()).Accelerator.config in
        Alcotest.(check bool) "positive" true
          (Spatial_sim.Scalar_backend.estimate_seconds cfg op > 0.));
    Alcotest.test_case "elementwise-bandwidth-bound" `Quick (fun () ->
        let cfg = (Accelerator.v100 ()).Accelerator.config in
        let small = Spatial_sim.Scalar_backend.estimate_elementwise cfg ~elems:100 in
        let big = Spatial_sim.Scalar_backend.estimate_elementwise cfg ~elems:10_000_000 in
        Alcotest.(check bool) "monotone" true (big > small));
    Alcotest.test_case "tensor-core-beats-scalar-on-big-gemm" `Quick (fun () ->
        (* the reason spatial units exist: a large GEMM is much faster
           through the intrinsic than on the scalar units *)
        let accel = Accelerator.v100 () in
        let op = Ops.gemm ~m:1024 ~n:1024 ~k:1024 () in
        let plan = Compiler.tune accel op in
        let scalar =
          Spatial_sim.Scalar_backend.estimate_seconds accel.Accelerator.config op
        in
        Alcotest.(check bool) "mapped" true (Compiler.is_mapped plan);
        Alcotest.(check bool) "faster" true (Compiler.seconds plan < scalar));
  ]

let suites =
  [ ("sim.estimate", estimate_tests); ("sim.scalar", scalar_tests) ]
