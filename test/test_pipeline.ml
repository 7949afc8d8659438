open Amos
module Nd = Amos_tensor.Nd
module Rng = Amos_tensor.Rng
module Ops = Amos_workloads.Ops

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let structure_tests =
  [
    Alcotest.test_case "mini-cnn-shapes-chain" `Quick (fun () ->
        let p = Pipeline.mini_cnn () in
        Alcotest.(check (list int)) "input" [ 2; 3; 10; 10 ] (Pipeline.input_shape p);
        Alcotest.(check (list int)) "output" [ 2; 8; 4; 4 ] (Pipeline.output_shape p));
    Alcotest.test_case "mismatched-shapes-rejected" `Quick (fun () ->
        let conv1 = Ops.conv2d ~n:1 ~c:3 ~k:4 ~p:8 ~q:8 ~r:3 ~s:3 () in
        let conv2 = Ops.conv2d ~n:1 ~c:8 ~k:4 ~p:6 ~q:6 ~r:3 ~s:3 () in
        match Pipeline.create ~name:"bad" [ Pipeline.Op conv1; Pipeline.Op conv2 ] with
        | _ -> Alcotest.fail "expected shape mismatch"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "empty-pipeline-rejected" `Quick (fun () ->
        match Pipeline.create ~name:"empty" [ Pipeline.Relu ] with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
  ]

let execution_tests =
  [
    Alcotest.test_case "compiled-equals-reference" `Quick (fun () ->
        (* the system-level correctness property: a whole network compiled
           through AMOS computes exactly what the reference does *)
        let p = Pipeline.mini_cnn () in
        let rng = Rng.create 77 in
        let input = Nd.random rng (Pipeline.input_shape p) in
        let weights = Pipeline.random_weights rng p in
        let expected = Pipeline.run_reference p ~input ~weights in
        let got =
          Pipeline.run_compiled (toy_accel ()) p ~input
            ~weights
        in
        Alcotest.(check bool) "bit-close" true
          (Nd.approx_equal ~tol:1e-3 expected got));
    Alcotest.test_case "relu-applied" `Quick (fun () ->
        let conv = Ops.conv2d ~n:1 ~c:1 ~k:1 ~p:2 ~q:2 ~r:1 ~s:1 () in
        let p = Pipeline.create ~name:"r" [ Pipeline.Op conv; Pipeline.Relu ] in
        let input = Nd.create [ 1; 1; 2; 2 ] in
        Nd.fill input (-1.);
        let weights = [ []; [] ] in
        let w = Nd.create [ 1; 1; 1; 1 ] in
        Nd.fill w 1.;
        let weights = (match weights with _ :: rest -> [ w ] :: rest | [] -> []) in
        let out = Pipeline.run_reference p ~input ~weights in
        Alcotest.(check (float 1e-9)) "clamped to 0" 0. (Nd.get out [| 0; 0; 0; 0 |]));
  ]

let suites =
  [ ("pipeline.structure", structure_tests); ("pipeline.exec", execution_tests) ]
