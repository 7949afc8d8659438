open Amos
open Amos_baselines
module Ops = Amos_workloads.Ops
module Networks = Amos_workloads.Networks
module Rng = Amos_tensor.Rng

let xla_tests =
  [
    Alcotest.test_case "gemm-matches" `Quick (fun () ->
        Alcotest.(check bool) "tensor core" true
          (Pattern_xla.classify (Ops.gemm ~m:128 ~n:128 ~k:128 ())
          = Pattern_xla.Tensor_core));
    Alcotest.test_case "matvec-falls-back" `Quick (fun () ->
        (* the MI-LSTM batch-1 linear layer of Sec 2.3 *)
        match Pattern_xla.classify (Ops.gemm ~m:1 ~n:512 ~k:512 ()) with
        | Pattern_xla.Fallback _ -> ()
        | Pattern_xla.Tensor_core -> Alcotest.fail "should not match");
    Alcotest.test_case "depthwise-falls-back" `Quick (fun () ->
        match
          Pattern_xla.classify (Ops.depthwise_conv2d ~n:16 ~c:32 ~p:28 ~q:28 ~r:3 ~s:3 ())
        with
        | Pattern_xla.Fallback _ -> ()
        | Pattern_xla.Tensor_core -> Alcotest.fail "should not match");
    Alcotest.test_case "strided-falls-back" `Quick (fun () ->
        match
          Pattern_xla.classify
            (Ops.conv2d ~stride:2 ~n:16 ~c:64 ~k:128 ~p:28 ~q:28 ~r:3 ~s:3 ())
        with
        | Pattern_xla.Fallback _ -> ()
        | Pattern_xla.Tensor_core -> Alcotest.fail "should not match");
    Alcotest.test_case "grouped-falls-back" `Quick (fun () ->
        match
          Pattern_xla.classify
            (Ops.grouped_conv2d ~groups:4 ~n:16 ~c:16 ~k:16 ~p:28 ~q:28 ~r:1 ~s:1 ())
        with
        | Pattern_xla.Fallback _ -> ()
        | Pattern_xla.Tensor_core -> Alcotest.fail "should not match");
    Alcotest.test_case "amos-maps-strictly-more" `Quick (fun () ->
        (* Table 2's headline: on every network AMOS maps more ops than the
           XLA-style matcher *)
        let accel = Accelerator.a100 () in
        let intr = Accelerator.primary_intrinsic accel in
        List.iter
          (fun net ->
            let xla = Pattern_xla.mapped_count net in
            let amos =
              List.fold_left
                (fun acc (layer, mult) ->
                  match layer with
                  | Networks.Tensor_op op
                    when Mapping_gen.generate_op op intr <> [] ->
                      acc + mult
                  | Networks.Tensor_op _ | Networks.Elementwise _ -> acc)
                0 net.Networks.layers
            in
            Alcotest.(check bool)
              (net.Networks.name ^ ": amos > xla")
              true (amos > xla))
          (Networks.all ~batch:1));
  ]

let fixed_mapping_tests =
  [
    Alcotest.test_case "im2col-is-maximal-conv-mapping" `Quick (fun () ->
        let op = Ops.conv2d ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let intr = Intrinsic.wmma_16x16x16 () in
        match Fixed_mappings.im2col op intr with
        | Some m ->
            Alcotest.(check bool) "valid" true (Matching.validate m);
            Alcotest.(check int) "no outer sw iters" 0
              (List.length (Matching.outer m))
        | None -> Alcotest.fail "im2col should exist");
    Alcotest.test_case "fuse-hw-leaves-batch-outer" `Quick (fun () ->
        let op = Ops.conv2d ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let intr = Intrinsic.wmma_16x16x16 () in
        match Fixed_mappings.fuse_hw op intr with
        | Some m ->
            Alcotest.(check bool) "valid" true (Matching.validate m);
            Alcotest.(check bool) "n is outer" true
              (List.exists
                 (fun (it : Amos_ir.Iter.t) -> it.Amos_ir.Iter.name = "n")
                 (Matching.outer m))
        | None -> Alcotest.fail "fuse_hw should exist");
    Alcotest.test_case "template-mismatch-returns-none" `Quick (fun () ->
        (* gemm has no iterations named p/q/c: the UNIT template fails *)
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        Alcotest.(check bool) "no match" true
          (Fixed_mappings.fuse_hw op (Intrinsic.wmma_16x16x16 ()) = None));
    Alcotest.test_case "fixed-mappings-are-correct" `Quick (fun () ->
        let op = Ops.conv2d ~n:2 ~c:3 ~k:4 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let accel =
          let base = Accelerator.v100 () in
          { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }
        in
        let intr = Accelerator.primary_intrinsic accel in
        let rng = Rng.create 21 in
        List.iter
          (fun matching_opt ->
            match matching_opt with
            | None -> Alcotest.fail "expected a template match"
            | Some matching ->
                let m = Mapping.make matching in
                Alcotest.(check bool) "verifies" true
                  (Compiler.verify ~rng accel m (Schedule.default m)))
          [ Fixed_mappings.im2col op intr; Fixed_mappings.fuse_hw op intr ]);
  ]

let library_tests =
  [
    Alcotest.test_case "cudnn-like-support-rules" `Quick (fun () ->
        Alcotest.(check bool) "conv supported" true
          (Library_backend.supported (Ops.conv2d ~n:16 ~c:64 ~k:64 ~p:28 ~q:28 ~r:3 ~s:3 ()));
        Alcotest.(check bool) "gemm supported" true
          (Library_backend.supported (Ops.gemm ~m:64 ~n:64 ~k:64 ()));
        Alcotest.(check bool) "depthwise unsupported" false
          (Library_backend.supported (Ops.depthwise_conv2d ~n:16 ~c:32 ~p:28 ~q:28 ~r:3 ~s:3 ()));
        Alcotest.(check bool) "grouped unsupported" false
          (Library_backend.supported
             (Ops.grouped_conv2d ~groups:4 ~n:16 ~c:8 ~k:8 ~p:28 ~q:28 ~r:3 ~s:3 ()));
        Alcotest.(check bool) "capsule unsupported" false
          (Library_backend.supported
             (Ops.capsule_conv2d ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 ~cap:4 ())));
    Alcotest.test_case "amos-beats-library-on-depthwise" `Quick (fun () ->
        (* the ShuffleNet/MobileNet speedup mechanism of Sec 7.4 *)
        let accel = Accelerator.a100 () in
        let op = Ops.depthwise_conv2d ~n:16 ~c:128 ~p:28 ~q:28 ~r:3 ~s:3 () in
        let lib = Library_backend.op_seconds ~rng:(Rng.create 31) accel op in
        let amos = Compiler.seconds (Compiler.tune accel op) in
        Alcotest.(check bool) "amos faster" true (amos < lib));
  ]

let template_tests =
  [
    Alcotest.test_case "ansor-never-uses-intrinsics" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.gemm ~m:1024 ~n:1024 ~k:1024 () in
        let ansor =
          Template_compiler.op_seconds ~template:Template_compiler.Ansor
            accel op
        in
        let amos = Compiler.seconds (Compiler.tune accel op) in
        Alcotest.(check bool) "amos much faster" true (amos *. 2. < ansor));
    Alcotest.test_case "layout-restriction-forces-fallback" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        (* c = 3 is not a multiple of 16: the AutoTVM-style template fails *)
        let op = Ops.conv2d ~n:16 ~c:3 ~k:64 ~p:56 ~q:56 ~r:7 ~s:7 () in
        let restricted =
          Template_compiler.op_seconds ~require_extent_mult:16
            ~template:Template_compiler.Im2col accel op
        in
        let unrestricted =
          Template_compiler.op_seconds ~template:Template_compiler.Im2col
            accel op
        in
        Alcotest.(check bool) "restricted slower" true
          (restricted > unrestricted));
  ]

let suites =
  [
    ("baselines.pattern_xla", xla_tests);
    ("baselines.fixed_mappings", fixed_mapping_tests);
    ("baselines.library", library_tests);
    ("baselines.templates", template_tests);
  ]
