open Amos_ir
open Amos
module Ops = Amos_workloads.Ops

let by_name op name =
  List.find (fun (it : Iter.t) -> it.Iter.name = name) op.Operator.iters

let intr_iter intr i = List.nth intr.Intrinsic.compute.Compute_abs.iters i

(* Build a matching by (software name -> intrinsic position) pairs. *)
let matching_of op intr table =
  let view = Option.get (Mac_view.of_operator op) in
  let assign =
    Array.of_list
      (List.map
         (fun (it : Iter.t) ->
           match List.assoc_opt it.Iter.name table with
           | Some pos -> Some (intr_iter intr pos)
           | None -> None)
         op.Operator.iters)
  in
  Matching.create ~view ~intr ~src_perm:[| 0; 1 |] ~assign

let algorithm1_tests =
  let op () = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:2 ~q:2 ~r:2 ~s:2 () in
  let intr () = Intrinsic.toy_mma_2x2x2 () in
  [
    Alcotest.test_case "fig3d-mapping-valid" `Quick (fun () ->
        (* n,p,q -> i1; k -> i2; c,r,s -> r1 (the paper's running example) *)
        let m =
          matching_of (op ()) (intr ())
            [ ("n", 0); ("p", 0); ("q", 0); ("k", 1); ("c", 2); ("r", 2); ("s", 2) ]
        in
        Alcotest.(check bool) "valid" true (Matching.validate m));
    Alcotest.test_case "n-and-k-to-i1-invalid" `Quick (fun () ->
        (* Sec 5.2: mapping n, k to the same intrinsic iteration i1 is
           semantically wrong and must be rejected *)
        let m =
          matching_of (op ()) (intr ())
            [ ("n", 0); ("k", 0); ("p", 0); ("q", 0); ("c", 2); ("r", 2); ("s", 2) ]
        in
        Alcotest.(check bool) "invalid" false (Matching.validate m));
    Alcotest.test_case "k-to-r1-invalid" `Quick (fun () ->
        let m = matching_of (op ()) (intr ()) [ ("n", 0); ("k", 2); ("c", 2) ] in
        Alcotest.(check bool) "invalid" false (Matching.validate m));
    Alcotest.test_case "empty-mapping-invalid" `Quick (fun () ->
        let m = matching_of (op ()) (intr ()) [] in
        Alcotest.(check bool) "invalid" false (Matching.validate m));
    Alcotest.test_case "matrices-shapes" `Quick (fun () ->
        let m =
          matching_of (op ()) (intr ()) [ ("n", 0); ("k", 1); ("c", 2) ]
        in
        let x, y, z = Matching.matrices m in
        Alcotest.(check int) "X rows" 3 (Bin_matrix.rows x);
        Alcotest.(check int) "X cols = mapped" 3 (Bin_matrix.cols x);
        Alcotest.(check int) "Y rows = used" 3 (Bin_matrix.rows y);
        Alcotest.(check int) "Z cols = used" 3 (Bin_matrix.cols z));
    Alcotest.test_case "fig4-matrices-literal" `Quick (fun () ->
        (* the exact X, Y, Z of Fig 4 satisfy Algorithm 1 *)
        let x =
          Bin_matrix.of_int_lists
            [
              [ 1; 1; 1; 1; 0; 0; 0 ];
              [ 1; 0; 1; 1; 1; 1; 1 ];
              [ 0; 1; 0; 0; 1; 1; 1 ];
            ]
        in
        let y =
          Bin_matrix.of_int_lists
            [
              [ 1; 0; 1; 1; 0; 0; 0 ];
              [ 0; 1; 0; 0; 0; 0; 0 ];
              [ 0; 0; 0; 0; 1; 1; 1 ];
            ]
        in
        let z =
          Bin_matrix.of_int_lists [ [ 1; 1; 0 ]; [ 1; 0; 1 ]; [ 0; 1; 1 ] ]
        in
        let x' = Bin_matrix.mul z y in
        let z' = Bin_matrix.mul x (Bin_matrix.transpose y) in
        Alcotest.(check bool) "X' = X" true (Bin_matrix.equal x' x);
        Alcotest.(check bool) "Z' = Z" true (Bin_matrix.equal z' z));
    Alcotest.test_case "describe-fig3-style" `Quick (fun () ->
        let m =
          matching_of (op ()) (intr ())
            [ ("n", 0); ("p", 0); ("q", 0); ("k", 1); ("c", 2); ("r", 2); ("s", 2) ]
        in
        Alcotest.(check string) "text"
          "[i1, i2, r1] <- [(n*4 + p*2 + q) mod 2, k mod 2, (c*4 + r*2 + s) mod 2]"
          (Matching.describe m));
  ]

let feasibility_tests =
  let op () = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:2 ~q:2 ~r:2 ~s:2 () in
  let intr () = Intrinsic.toy_mma_2x2x2 () in
  [
    Alcotest.test_case "window-singleton-infeasible" `Quick (fun () ->
        let m = matching_of (op ()) (intr ()) [ ("n", 0); ("k", 1); ("r", 2) ] in
        Alcotest.(check bool) "valid but" true (Matching.validate m);
        Alcotest.(check bool) "not feasible" false (Matching.feasible m));
    Alcotest.test_case "channel-singleton-feasible" `Quick (fun () ->
        let m = matching_of (op ()) (intr ()) [ ("n", 0); ("k", 1); ("c", 2) ] in
        Alcotest.(check bool) "feasible" true (Matching.feasible m));
    Alcotest.test_case "window-pair-feasible" `Quick (fun () ->
        let m =
          matching_of (op ()) (intr ()) [ ("n", 0); ("k", 1); ("r", 2); ("s", 2) ]
        in
        Alcotest.(check bool) "feasible" true (Matching.feasible m));
  ]

(* Table 6 mapping counts on Tensor Core.  Paper values in comments; the
   starred ones depend on unpublished feasibility details of the AMOS
   implementation and our principled rules give different counts (see
   DESIGN.md section 5 and EXPERIMENTS.md). *)
let table6_tests =
  let wmma () = Intrinsic.wmma_16x16x16 () in
  let count op = Mapping_gen.count op (wmma ()) in
  [
    Alcotest.test_case "GMV=1" `Quick (fun () ->
        Alcotest.(check int) "GMV" 1 (count (Ops.gemv ~m:32 ~k:32 ())));
    Alcotest.test_case "GMM=1" `Quick (fun () ->
        Alcotest.(check int) "GMM" 1 (count (Ops.gemm ~m:32 ~n:32 ~k:32 ())));
    Alcotest.test_case "C1D=6" `Quick (fun () ->
        Alcotest.(check int) "C1D" 6 (count (Ops.conv1d ~n:2 ~c:4 ~k:4 ~p:8 ~r:3 ())));
    Alcotest.test_case "C2D=35" `Quick (fun () ->
        Alcotest.(check int) "C2D" 35
          (count (Ops.conv2d ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 ())));
    Alcotest.test_case "C3D=180" `Quick (fun () ->
        Alcotest.(check int) "C3D" 180
          (count (Ops.conv3d ~n:2 ~c:4 ~k:4 ~d:4 ~p:4 ~q:4 ~t:3 ~r:3 ~s:3 ())));
    Alcotest.test_case "GRP=35" `Quick (fun () ->
        Alcotest.(check int) "GRP" 35
          (count (Ops.grouped_conv2d ~groups:2 ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 ())));
    Alcotest.test_case "DIL=35" `Quick (fun () ->
        Alcotest.(check int) "DIL" 35
          (count (Ops.dilated_conv2d ~dilation:2 ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 ())));
    Alcotest.test_case "GFC=1" `Quick (fun () ->
        Alcotest.(check int) "GFC" 1 (count (Ops.grouped_fc ~g:4 ~m:32 ~k:32 ())));
    Alcotest.test_case "MEN=1" `Quick (fun () ->
        Alcotest.(check int) "MEN" 1 (count (Ops.mean ~rows:32 ~cols:32 ())));
    Alcotest.test_case "VAR=1" `Quick (fun () ->
        Alcotest.(check int) "VAR" 1 (count (Ops.variance ~rows:32 ~cols:32 ())));
    Alcotest.test_case "SCN=1" `Quick (fun () ->
        Alcotest.(check int) "SCN" 1 (count (Ops.scan ~n:8 ~len:32 ())));
    Alcotest.test_case "DEP-nonzero" `Quick (fun () ->
        (* paper: 11; our rules: 7 — what matters is that depthwise conv is
           mappable at all (XLA cannot, Table 2) *)
        Alcotest.(check bool) "mappable" true
          (count (Ops.depthwise_conv2d ~n:2 ~c:4 ~p:4 ~q:4 ~r:3 ~s:3 ()) > 0));
    Alcotest.test_case "T2D-nonzero" `Quick (fun () ->
        Alcotest.(check bool) "mappable" true
          (count (Ops.transposed_conv2d ~stride:2 ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 ()) > 0));
    Alcotest.test_case "CAP-nonzero" `Quick (fun () ->
        Alcotest.(check bool) "mappable" true
          (count (Ops.capsule_conv2d ~n:2 ~c:2 ~k:2 ~p:2 ~q:2 ~r:2 ~s:2 ~cap:2 ()) > 0));
    Alcotest.test_case "BCV-nonzero" `Quick (fun () ->
        Alcotest.(check bool) "mappable" true
          (count (Ops.batched_conv2d ~n:2 ~c:2 ~k:2 ~p:2 ~q:2 ~r:2 ~s:2 ()) > 0));
    Alcotest.test_case "maxpool-unmappable" `Quick (fun () ->
        Alcotest.(check int) "0 mappings" 0
          (count (Ops.maxpool2d ~n:1 ~c:2 ~p:2 ~q:2 ~r:2 ~s:2 ())));
  ]

let generation_props =
  let wmma = Intrinsic.wmma_16x16x16 () in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"generated-mappings-validate" ~count:20
         (QCheck.make
            QCheck.Gen.(
              pair (int_range 1 3)
                (pair (int_range 1 8) (pair (int_range 1 8) (int_range 1 3)))))
         (fun (n, (c, (k, r))) ->
           let op = Ops.conv2d ~n ~c ~k ~p:3 ~q:3 ~r ~s:r () in
           List.for_all Matching.validate (Mapping_gen.generate_op op wmma)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"count-independent-of-extents" ~count:20
         (QCheck.make
            QCheck.Gen.(pair (int_range 1 4) (pair (int_range 1 16) (int_range 1 16))))
         (fun (n, (c, k)) ->
           let op = Ops.conv2d ~n ~c ~k ~p:4 ~q:4 ~r:3 ~s:3 () in
           Mapping_gen.count op wmma = 35));
  ]

let src_perm_tests =
  [
    Alcotest.test_case "mma-automorphism-dedupes" `Quick (fun () ->
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let view = Option.get (Mac_view.of_operator op) in
        Alcotest.(check int) "1 perm" 1
          (List.length (Mapping_gen.src_perms view (Intrinsic.wmma_16x16x16 ()))));
    Alcotest.test_case "vnni-keeps-both-perms" `Quick (fun () ->
        let op = Ops.gemm ~m:32 ~n:32 ~k:32 () in
        let view = Option.get (Mac_view.of_operator op) in
        Alcotest.(check int) "2 perms" 2
          (List.length (Mapping_gen.src_perms view (Intrinsic.avx512_vnni ()))));
    Alcotest.test_case "c2d-on-vnni-has-mappings" `Quick (fun () ->
        let op = Ops.conv2d ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 () in
        Alcotest.(check bool) "mappable" true
          (Mapping_gen.count op (Intrinsic.avx512_vnni ()) > 0));
  ]

let newaccel_tests =
  [
    Alcotest.test_case "c3d-on-axpy" `Quick (fun () ->
        (* Sec 7.5: the paper reports 15 mapping types for the AXPY unit *)
        let op = Ops.conv3d ~n:2 ~c:2 ~k:2 ~d:2 ~p:2 ~q:2 ~t:2 ~r:2 ~s:2 () in
        let n = Mapping_gen.count op (Intrinsic.axpy_unit ()) in
        Alcotest.(check bool) "near 15" true (n >= 15 && n <= 16));
    Alcotest.test_case "c3d-on-gemv" `Quick (fun () ->
        let op = Ops.conv3d ~n:2 ~c:2 ~k:2 ~d:2 ~p:2 ~q:2 ~t:2 ~r:2 ~s:2 () in
        Alcotest.(check bool) "mappable" true
          (Mapping_gen.count op (Intrinsic.gemv_unit ()) > 0));
    Alcotest.test_case "c3d-on-conv-unit" `Quick (fun () ->
        let op = Ops.conv3d ~n:2 ~c:2 ~k:2 ~d:2 ~p:2 ~q:2 ~t:2 ~r:2 ~s:2 () in
        Alcotest.(check bool) "mappable" true
          (Mapping_gen.count op (Intrinsic.conv_unit ()) > 0));
  ]

let suites =
  [
    ("mapping.algorithm1", algorithm1_tests);
    ("mapping.feasibility", feasibility_tests);
    ("mapping.table6", table6_tests);
    ("mapping.generation", generation_props);
    ("mapping.src_perms", src_perm_tests);
    ("mapping.new_accelerators", newaccel_tests);
  ]

let shape_tests =
  [
    Alcotest.test_case "wmma-shapes-problem-sizes" `Quick (fun () ->
        let check intr expect =
          Alcotest.(check (list int)) (intr.Intrinsic.name)
            expect
            (List.map snd (Compute_abs.problem_size intr.Intrinsic.compute))
        in
        check (Intrinsic.wmma_32x8x16 ()) [ 32; 8; 16 ];
        check (Intrinsic.wmma_8x32x16 ()) [ 8; 32; 16 ]);
    Alcotest.test_case "intrinsic-selection-gemv-prefers-32x8" `Quick (fun () ->
        (* an m-heavy matrix-vector product wastes least on the shape with
           the smallest n dimension *)
        let accel = Accelerator.a100 () in
        let op = Ops.gemv ~m:2048 ~k:2048 () in
        let plan = Compiler.tune accel op in
        match plan.Compiler.target with
        | Compiler.Spatial p ->
            Alcotest.(check string) "chosen shape"
              "wmma::mma_sync(32x8x16)"
              p.Explore.candidate.Explore.mapping.Mapping.matching
                .Matching.intr.Intrinsic.name
        | Compiler.Scalar _ -> Alcotest.fail "expected a spatial plan");
    Alcotest.test_case "union-space-across-shapes" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.conv2d ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 () in
        (* 35 per shape, plus operand-swapped spaces on non-square shapes *)
        Alcotest.(check int) "175" 175
          (List.length (Compiler.mappings accel op)));
    Alcotest.test_case "nhwc-same-mapping-count" `Quick (fun () ->
        let wmma = Intrinsic.wmma_16x16x16 () in
        let nchw = Ops.conv2d ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let nhwc = Ops.conv2d_nhwc ~n:2 ~c:4 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 () in
        Alcotest.(check int) "layout-agnostic"
          (Mapping_gen.count nchw wmma)
          (Mapping_gen.count nhwc wmma));
  ]

let suites = suites @ [ ("mapping.shapes", shape_tests) ]

let explain_tests =
  [
    Alcotest.test_case "explain-valid-mapping" `Quick (fun () ->
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:2 ~q:2 ~r:2 ~s:2 () in
        let m =
          matching_of op (Intrinsic.toy_mma_2x2x2 ())
            [ ("n", 0); ("k", 1); ("c", 2) ]
        in
        let text = Matching.explain m in
        Alcotest.(check bool) "says VALID" true
          (String.length text > 0
          && String.sub text (String.length text - 6) 5 = "VALID"));
    Alcotest.test_case "explain-invalid-mapping" `Quick (fun () ->
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:2 ~q:2 ~r:2 ~s:2 () in
        let m =
          matching_of op (Intrinsic.toy_mma_2x2x2 ())
            [ ("n", 0); ("k", 0); ("c", 2) ]
        in
        let text = Matching.explain m in
        let contains hay needle =
          let n = String.length needle in
          let rec go i =
            i + n <= String.length hay
            && (String.sub hay i n = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "says INVALID" true (contains text "INVALID"));
  ]

let suites = suites @ [ ("mapping.explain", explain_tests) ]
