(* Wider codegen coverage: every intrinsic family, schedule edge cases,
   and capsule/3D/transposed operators. *)

open Amos_ir
open Amos
module Ops = Amos_workloads.Ops
module Rng = Amos_tensor.Rng
module Machine = Spatial_sim.Machine

let accel_with intr =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ intr ] }

let verify_all ?(limit = max_int) name intr op =
  let accel = accel_with intr in
  let rng = Rng.create 200 in
  let inputs = Amos_tensor.Reference.random_inputs rng op in
  let expected = Amos_tensor.Reference.run op ~inputs in
  let matchings = Mapping_gen.generate_op op intr in
  Alcotest.(check bool) (name ^ " has mappings") true (matchings <> []);
  List.iteri
    (fun i matching ->
      if i < limit then begin
        let m = Mapping.make matching in
        let k = Codegen.lower accel m (Schedule.default m) in
        let got =
          Machine.run accel.Accelerator.config k ~inputs
            ~out_shape:op.Operator.output.Operator.tensor.Tensor_decl.shape
        in
        if not (Amos_tensor.Nd.approx_equal ~tol:1e-3 expected got) then
          Alcotest.failf "%s: %s wrong (diff %g)" name (Mapping.describe m)
            (Amos_tensor.Nd.max_abs_diff expected got)
      end)
    matchings

let intrinsic_family_tests =
  [
    Alcotest.test_case "gemm-on-full-wmma-16x16x16" `Quick (fun () ->
        verify_all "wmma16" (Intrinsic.wmma_16x16x16 ())
          (Ops.gemm ~m:5 ~n:3 ~k:4 ()));
    Alcotest.test_case "gemm-on-wmma-32x8x16" `Quick (fun () ->
        verify_all "wmma32x8" (Intrinsic.wmma_32x8x16 ())
          (Ops.gemm ~m:5 ~n:3 ~k:4 ()));
    Alcotest.test_case "gemm-on-wmma-8x32x16" `Quick (fun () ->
        verify_all "wmma8x32" (Intrinsic.wmma_8x32x16 ())
          (Ops.gemm ~m:5 ~n:3 ~k:4 ()));
    Alcotest.test_case "conv2d-on-gemv-unit" `Quick (fun () ->
        verify_all "gemv-unit" (Intrinsic.gemv_unit ())
          (Ops.conv2d ~n:1 ~c:3 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 ()));
    Alcotest.test_case "conv2d-on-axpy-unit" `Quick (fun () ->
        verify_all "axpy-unit" (Intrinsic.axpy_unit ())
          (Ops.conv2d ~n:1 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 ()));
    Alcotest.test_case "conv2d-on-conv-unit" `Quick (fun () ->
        verify_all ~limit:20 "conv-unit" (Intrinsic.conv_unit ())
          (Ops.conv2d ~n:1 ~c:3 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 ()));
    Alcotest.test_case "conv2d-on-mali-dot" `Quick (fun () ->
        verify_all "mali" (Intrinsic.mali_dot4 ())
          (Ops.conv2d ~n:1 ~c:3 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 ()));
    Alcotest.test_case "mean-on-ascend-vector" `Quick (fun () ->
        verify_all "ascend-vec" (Intrinsic.ascend_vector ())
          (Ops.mean ~rows:5 ~cols:7 ()));
    Alcotest.test_case "gemv-on-ascend-cube" `Quick (fun () ->
        verify_all "ascend-cube" (Intrinsic.ascend_cube ())
          (Ops.gemv ~m:6 ~k:5 ()));
    Alcotest.test_case "c3d-on-toy-mma-sampled" `Quick (fun () ->
        verify_all ~limit:25 "c3d" (Intrinsic.toy_mma_2x2x2 ())
          (Ops.conv3d ~n:1 ~c:2 ~k:2 ~d:2 ~p:2 ~q:2 ~t:2 ~r:2 ~s:2 ()));
    Alcotest.test_case "capsule-on-toy-mma-sampled" `Quick (fun () ->
        verify_all ~limit:15 "cap" (Intrinsic.toy_mma_2x2x2 ())
          (Ops.capsule_conv2d ~n:1 ~c:2 ~k:2 ~p:2 ~q:2 ~r:2 ~s:2 ~cap:2 ()));
    Alcotest.test_case "t2d-on-toy-mma-sampled" `Quick (fun () ->
        verify_all ~limit:15 "t2d" (Intrinsic.toy_mma_2x2x2 ())
          (Ops.transposed_conv2d ~stride:2 ~n:1 ~c:2 ~k:2 ~p:3 ~q:3 ~r:2 ~s:2 ()));
  ]

(* explicit schedules that stress the split/padding machinery *)
let schedule_edge_tests =
  let op = Ops.conv2d ~n:2 ~c:3 ~k:4 ~p:3 ~q:3 ~r:2 ~s:2 () in
  let intr = Intrinsic.toy_mma_2x2x2 () in
  let accel = accel_with intr in
  let mapping () =
    match Compiler.mappings accel op with
    | m :: _ -> m
    | [] -> Alcotest.fail "no mapping"
  in
  let run_with_splits make_split =
    let m = mapping () in
    let ds = Schedule.dims m in
    let sched =
      {
        Schedule.splits = Array.of_list (List.map make_split ds);
        stage_depth = 1;
        unroll = 1;
        vectorize = false;
      }
    in
    Alcotest.(check bool) "schedule valid" true (Schedule.validate m sched);
    let rng = Rng.create 201 in
    let inputs = Amos_tensor.Reference.random_inputs rng op in
    let expected = Amos_tensor.Reference.run op ~inputs in
    let k = Codegen.lower accel m sched in
    let got =
      Machine.run accel.Accelerator.config k ~inputs
        ~out_shape:op.Operator.output.Operator.tensor.Tensor_decl.shape
    in
    Alcotest.(check bool) "functional" true
      (Amos_tensor.Nd.approx_equal ~tol:1e-3 expected got)
  in
  [
    Alcotest.test_case "non-dividing-splits-pad-correctly" `Quick (fun () ->
        run_with_splits (fun (d : Schedule.dim) ->
            if not d.Schedule.parallelizable then
              { Schedule.block = 1; subcore = 1; serial = d.Schedule.extent }
            else
              (* 3-way blocks over any extent: padding when 3 does not
                 divide it *)
              {
                Schedule.block = 3;
                subcore = 1;
                serial = (d.Schedule.extent + 2) / 3;
              }));
    Alcotest.test_case "oversubscribed-subcores-correct" `Quick (fun () ->
        run_with_splits (fun (d : Schedule.dim) ->
            if not d.Schedule.parallelizable then
              { Schedule.block = 1; subcore = 1; serial = d.Schedule.extent }
            else
              { Schedule.block = 1; subcore = d.Schedule.extent; serial = 1 }));
    Alcotest.test_case "all-serial-correct" `Quick (fun () ->
        run_with_splits (fun (d : Schedule.dim) ->
            { Schedule.block = 1; subcore = 1; serial = d.Schedule.extent }));
    Alcotest.test_case "schedule-knobs-dont-change-results" `Quick (fun () ->
        let m = mapping () in
        let rng = Rng.create 202 in
        let inputs = Amos_tensor.Reference.random_inputs rng op in
        let expected = Amos_tensor.Reference.run op ~inputs in
        List.iter
          (fun (stage_depth, unroll, vectorize) ->
            let sched =
              { (Schedule.default m) with Schedule.stage_depth; unroll; vectorize }
            in
            let k = Codegen.lower accel m sched in
            let got =
              Machine.run accel.Accelerator.config k ~inputs
                ~out_shape:op.Operator.output.Operator.tensor.Tensor_decl.shape
            in
            Alcotest.(check bool) "same results" true
              (Amos_tensor.Nd.approx_equal ~tol:1e-3 expected got))
          [ (1, 1, false); (4, 8, true); (2, 2, true) ]);
    Alcotest.test_case "invalid-schedule-rejected-by-lower" `Quick (fun () ->
        let m = mapping () in
        let ds = Schedule.dims m in
        let sched =
          {
            Schedule.splits =
              Array.of_list
                (List.map (fun _ -> { Schedule.block = 1; subcore = 1; serial = 1 }) ds);
            stage_depth = 1; unroll = 1; vectorize = false;
          }
        in
        (* serial=1 cannot cover extents > 1 *)
        if List.for_all (fun (d : Schedule.dim) -> d.Schedule.extent = 1) ds
        then ()
        else
          match Codegen.lower accel m sched with
          | _ -> Alcotest.fail "expected Invalid_argument"
          | exception Invalid_argument _ -> ());
  ]

let determinism_tests =
  [
    Alcotest.test_case "lower-is-deterministic" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:256 ~n:256 ~k:256 () in
        match Compiler.mappings accel op with
        | m :: _ ->
            let s = Schedule.default m in
            let t1 = Machine.estimate_seconds accel.Accelerator.config (Codegen.lower accel m s) in
            let t2 = Machine.estimate_seconds accel.Accelerator.config (Codegen.lower accel m s) in
            Alcotest.(check (float 0.)) "equal" t1 t2
        | [] -> Alcotest.fail "no mapping");
    Alcotest.test_case "superset-of-mappings-never-hurts" `Quick (fun () ->
        (* the per-mapping deterministic search makes exploration monotone:
           tuning over all mappings is at least as good as tuning any
           single one *)
        let accel = Accelerator.a100 () in
        let op =
          Amos_workloads.Resnet.config (Amos_workloads.Resnet.by_label "C8")
        in
        let mappings = Compiler.mappings accel op in
        let all =
          (Explore.tune ~accel ~mappings ())
            .Explore.best.Explore.measured
        in
        List.iteri
          (fun i m ->
            if i mod 20 = 0 then
              let single =
                (Explore.tune ~accel ~mappings:[ m ] ())
                  .Explore.best.Explore.measured
              in
              Alcotest.(check bool) "all <= single" true (all <= single +. 1e-12))
          mappings);
  ]

let suites =
  [
    ("codegen2.intrinsics", intrinsic_family_tests);
    ("codegen2.schedule_edges", schedule_edge_tests);
    ("codegen2.determinism", determinism_tests);
  ]

(* Fuzzing: random configurations across operator families, random valid
   schedules — every generated mapping must execute to the reference
   result.  This is the repository's strongest single property. *)
let fuzz_tests =
  let intr = Intrinsic.toy_mma_2x2x2 () in
  let accel = accel_with intr in
  let gen_family =
    QCheck.Gen.(
      int_range 0 7 >>= fun fam ->
      int_range 1 3 >>= fun a ->
      int_range 1 4 >>= fun b' ->
      int_range 1 4 >>= fun c ->
      int_range 1 3 >>= fun d ->
      return (fam, a, b', c, d))
  in
  let build (fam, a, b', c, d) =
    match fam with
    | 0 -> Ops.gemm ~m:(a + 1) ~n:(b' + 1) ~k:(c + 1) ()
    | 1 -> Ops.gemv ~m:(a + 2) ~k:(b' + 1) ()
    | 2 -> Ops.conv1d ~n:a ~c:b' ~k:c ~p:(d + 1) ~r:2 ()
    | 3 -> Ops.conv2d ~stride:((a mod 2) + 1) ~n:a ~c:b' ~k:c ~p:2 ~q:2 ~r:d ~s:d ()
    | 4 -> Ops.depthwise_conv2d ~n:a ~c:(b' + 1) ~p:2 ~q:2 ~r:2 ~s:2 ()
    | 5 -> Ops.mean ~rows:(a + 1) ~cols:(b' + 2) ()
    | 6 -> Ops.scan ~n:a ~len:(b' + 2) ()
    | _ -> Ops.grouped_fc ~g:a ~m:(b' + 1) ~k:(c + 1) ()
  in
  let build2 (fam, a, b', c, d) =
    match fam with
    | 0 -> Ops.conv2d_nhwc ~n:a ~c:b' ~k:c ~p:2 ~q:2 ~r:2 ~s:2 ()
    | 1 -> Ops.dilated_conv2d ~dilation:2 ~n:a ~c:b' ~k:c ~p:2 ~q:2 ~r:d ~s:d ()
    | 2 -> Ops.batched_gemm ~b:a ~m:(b' + 1) ~n:(c + 1) ~k:(d + 1) ()
    | 3 -> Ops.transposed_conv2d ~stride:2 ~n:a ~c:b' ~k:c ~p:2 ~q:2 ~r:2 ~s:2 ()
    | 4 -> Ops.grouped_conv2d ~groups:((a mod 2) + 1) ~n:1 ~c:b' ~k:c ~p:2 ~q:2 ~r:d ~s:d ()
    | 5 -> Ops.batched_conv2d ~n:a ~c:b' ~k:c ~p:2 ~q:2 ~r:2 ~s:2 ()
    | 6 -> Ops.variance ~rows:(a + 1) ~cols:(b' + 2) ()
    | _ -> Ops.capsule_conv2d ~n:1 ~c:a ~k:b' ~p:2 ~q:2 ~r:2 ~s:2 ~cap:2 ()
  in
  let rng = Rng.create 4242 in
  let check_op ?(limit = 20) op =
    let inputs = Amos_tensor.Reference.random_inputs rng op in
    let expected = Amos_tensor.Reference.run op ~inputs in
    let matchings = Mapping_gen.generate_op op intr in
    List.for_all
      (fun matching ->
        let m = Mapping.make matching in
        let sched =
          if Rng.bool rng then Schedule.default m else Schedule.random rng m
        in
        let k = Codegen.lower accel m sched in
        let got =
          Machine.run accel.Accelerator.config k ~inputs
            ~out_shape:op.Operator.output.Operator.tensor.Tensor_decl.shape
        in
        Amos_tensor.Nd.approx_equal ~tol:1e-3 expected got)
      (List.filteri (fun i _ -> i < limit) matchings)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fuzz-all-mappings-all-families" ~count:40
         (QCheck.make gen_family)
         (fun params -> check_op ~limit:max_int (build params)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"fuzz-exotic-families" ~count:25
         (QCheck.make gen_family)
         (fun params -> check_op (build2 params)));
  ]

let suites = suites @ [ ("codegen2.fuzz", fuzz_tests) ]
