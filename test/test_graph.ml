open Amos
module Nd = Amos_tensor.Nd
module Rng = Amos_tensor.Rng
module Ops = Amos_workloads.Ops

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let builder_tests =
  [
    Alcotest.test_case "residual-block-shapes" `Quick (fun () ->
        let g = Graph.residual_block ~channels:4 ~hw:5 () in
        Alcotest.(check (list int)) "in" [ 2; 4; 5; 5 ] (Graph.input_shape g);
        Alcotest.(check (list int)) "out" [ 2; 4; 5; 5 ] (Graph.output_shape g);
        Alcotest.(check int) "2 convs" 2 (List.length (Graph.tensor_ops g)));
    Alcotest.test_case "mini-cnn-shapes-chain" `Quick (fun () ->
        let g = Graph.mini_cnn () in
        Alcotest.(check (list int)) "input" [ 2; 3; 10; 10 ] (Graph.input_shape g);
        Alcotest.(check (list int)) "output" [ 2; 8; 4; 4 ] (Graph.output_shape g));
    Alcotest.test_case "branch-block-concat-shape" `Quick (fun () ->
        let g = Graph.branch_block ~channels:4 ~hw:5 () in
        Alcotest.(check (list int)) "out" [ 2; 12; 5; 5 ] (Graph.output_shape g));
    Alcotest.test_case "add-shape-mismatch-rejected" `Quick (fun () ->
        let b = Graph.Builder.create () in
        let x = Graph.Builder.input b [ 1; 2 ] in
        let y = Graph.Builder.input b [ 1; 3 ] in
        match Graph.Builder.add b x y with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "op-shape-mismatch-rejected" `Quick (fun () ->
        let b = Graph.Builder.create () in
        let x = Graph.Builder.input b [ 1; 3; 4; 4 ] in
        let conv = Ops.conv2d ~n:1 ~c:8 ~k:4 ~p:4 ~q:4 ~r:1 ~s:1 () in
        match Graph.Builder.op b conv x with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "concat-bad-axis-rejected" `Quick (fun () ->
        let b = Graph.Builder.create () in
        let x = Graph.Builder.input b [ 1; 2 ] in
        let y = Graph.Builder.input b [ 1; 2 ] in
        match Graph.Builder.concat b ~axis:5 x y with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

let reference_tests =
  [
    Alcotest.test_case "residual-identity-weights" `Quick (fun () ->
        (* with zero conv weights the block is relu(0 + x) = relu(x) *)
        let g = Graph.residual_block ~channels:2 ~hw:3 () in
        let input = Nd.create [ 2; 2; 3; 3 ] in
        Nd.fill input (-2.);
        Nd.set input [| 0; 0; 0; 0 |] 5.;
        let weights =
          List.map (fun (id, ws) -> (id, List.map (fun w -> Nd.copy w) ws))
            (Graph.random_weights (Rng.create 1) g)
        in
        List.iter (fun (_, ws) -> List.iter (fun w -> Nd.fill w 0.) ws) weights;
        let out = Graph.run_reference g ~input ~weights in
        Alcotest.(check (float 1e-9)) "relu passes positive" 5.
          (Nd.get out [| 0; 0; 0; 0 |]);
        Alcotest.(check (float 1e-9)) "relu clamps negative" 0.
          (Nd.get out [| 1; 1; 2; 2 |]));
    Alcotest.test_case "relu-applied" `Quick (fun () ->
        let b = Graph.Builder.create () in
        let x = Graph.Builder.input b [ 1; 1; 2; 2 ] in
        let conv =
          Graph.Builder.op b (Ops.conv2d ~n:1 ~c:1 ~k:1 ~p:2 ~q:2 ~r:1 ~s:1 ()) x
        in
        let g = Graph.Builder.finish b ~output:(Graph.Builder.relu b conv) in
        let input = Nd.create [ 1; 1; 2; 2 ] in
        Nd.fill input (-1.);
        let w = Nd.create [ 1; 1; 1; 1 ] in
        Nd.fill w 1.;
        let out = Graph.run_reference g ~input ~weights:[ (conv, [ w ]) ] in
        Alcotest.(check (float 1e-9)) "clamped to 0" 0. (Nd.get out [| 0; 0; 0; 0 |]));
    Alcotest.test_case "concat-places-branches" `Quick (fun () ->
        let g = Graph.branch_block ~channels:2 ~hw:3 () in
        let rng = Rng.create 2 in
        let input = Nd.random rng (Graph.input_shape g) in
        let weights = Graph.random_weights rng g in
        let out = Graph.run_reference g ~input ~weights in
        Alcotest.(check (list int)) "shape" [ 2; 6; 3; 3 ] (Nd.shape out));
  ]

let compiled_tests =
  [
    Alcotest.test_case "mini-cnn-compiled-equals-reference" `Quick (fun () ->
        (* the system-level correctness property: a whole network compiled
           through AMOS computes exactly what the reference does *)
        let g = Graph.mini_cnn () in
        let rng = Rng.create 77 in
        let input = Nd.random rng (Graph.input_shape g) in
        let weights = Graph.random_weights rng g in
        let expected = Graph.run_reference g ~input ~weights in
        let got = Graph.run_compiled (toy_accel ()) g ~input ~weights in
        Alcotest.(check bool) "bit-close" true
          (Nd.approx_equal ~tol:1e-3 expected got));
    Alcotest.test_case "residual-block-compiled-equals-reference" `Quick
      (fun () ->
        let g = Graph.residual_block ~channels:3 ~hw:4 () in
        let rng = Rng.create 3 in
        let input = Nd.random rng (Graph.input_shape g) in
        let weights = Graph.random_weights rng g in
        let expected = Graph.run_reference g ~input ~weights in
        let got =
          Graph.run_compiled (toy_accel ()) g ~input ~weights
        in
        Alcotest.(check bool) "equal" true
          (Nd.approx_equal ~tol:1e-3 expected got));
    Alcotest.test_case "branch-block-compiled-equals-reference" `Quick
      (fun () ->
        let g = Graph.branch_block ~channels:3 ~hw:4 () in
        let rng = Rng.create 5 in
        let input = Nd.random rng (Graph.input_shape g) in
        let weights = Graph.random_weights rng g in
        let expected = Graph.run_reference g ~input ~weights in
        let got =
          Graph.run_compiled (toy_accel ()) g ~input ~weights
        in
        Alcotest.(check bool) "equal" true
          (Nd.approx_equal ~tol:1e-3 expected got));
  ]

let suites =
  [
    ("graph.builder", builder_tests);
    ("graph.reference", reference_tests);
    ("graph.compiled", compiled_tests);
  ]

let shuffle_tests =
  [
    Alcotest.test_case "reshape-preserves-data" `Quick (fun () ->
        let b = Graph.Builder.create () in
        let x = Graph.Builder.input b [ 2; 6 ] in
        let r = Graph.Builder.reshape b [ 3; 4 ] x in
        let g = Graph.Builder.finish b ~output:r in
        let input = Nd.create [ 2; 6 ] in
        for i = 0 to 11 do Nd.set_flat input i (float_of_int i) done;
        let out = Graph.run_reference g ~input ~weights:[] in
        Alcotest.(check (list int)) "shape" [ 3; 4 ] (Nd.shape out);
        Alcotest.(check (float 0.)) "row-major" 7. (Nd.get out [| 1; 3 |]));
    Alcotest.test_case "permute-transposes" `Quick (fun () ->
        let b = Graph.Builder.create () in
        let x = Graph.Builder.input b [ 2; 3 ] in
        let p = Graph.Builder.permute b [ 1; 0 ] x in
        let g = Graph.Builder.finish b ~output:p in
        let input = Nd.create [ 2; 3 ] in
        Nd.set input [| 1; 2 |] 9.;
        let out = Graph.run_reference g ~input ~weights:[] in
        Alcotest.(check (float 0.)) "transposed" 9. (Nd.get out [| 2; 1 |]));
    Alcotest.test_case "bad-reshape-rejected" `Quick (fun () ->
        let b = Graph.Builder.create () in
        let x = Graph.Builder.input b [ 2; 6 ] in
        match Graph.Builder.reshape b [ 5 ] x with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "bad-permutation-rejected" `Quick (fun () ->
        let b = Graph.Builder.create () in
        let x = Graph.Builder.input b [ 2; 6 ] in
        match Graph.Builder.permute b [ 0; 0 ] x with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "shufflenet-unit-shapes" `Quick (fun () ->
        let g = Graph.shufflenet_unit ~groups:2 ~channels_per_group:2 ~hw:4 () in
        Alcotest.(check (list int)) "out" [ 2; 4; 4; 4 ] (Graph.output_shape g);
        Alcotest.(check int) "4 tensor ops" 4 (List.length (Graph.tensor_ops g)));
    Alcotest.test_case "shufflenet-unit-compiled-equals-reference" `Quick
      (fun () ->
        (* the full unit — grouped convs, channel shuffle, depthwise,
           residual — compiled through AMOS and verified end to end *)
        let g = Graph.shufflenet_unit ~groups:2 ~channels_per_group:2 ~hw:3 () in
        let rng = Rng.create 7 in
        let input = Nd.random rng (Graph.input_shape g) in
        let weights = Graph.random_weights rng g in
        let expected = Graph.run_reference g ~input ~weights in
        let got =
          Graph.run_compiled (toy_accel ()) g ~input ~weights
        in
        Alcotest.(check bool) "equal" true
          (Nd.approx_equal ~tol:1e-3 expected got));
  ]

let suites = suites @ [ ("graph.shuffle", shuffle_tests) ]
