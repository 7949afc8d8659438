(* The fingerprint renderer against the oracle it replaced
   ([Fingerprint_oracle]): keys, op keys and renderings must be
   byte-identical over the 113-config suite and the six networks' tensor
   operators at batch 1 and 16, on every preset, under several budgets,
   and on accelerators with custom intrinsics.  Literal keys recorded
   with the original renderer pin both, so the oracle and the renderer
   cannot drift together: keys persist in plan files, the journal, the
   observation log and the fleet ring. *)

open Amos
open Amos_ir
module Fingerprint = Amos_service.Fingerprint
module Oracle = Fingerprint_oracle
module Ops = Amos_workloads.Ops
module Suites = Amos_workloads.Suites
module Networks = Amos_workloads.Networks
module Resnet = Amos_workloads.Resnet

(* the default, a small budget, and extremes that exercise negative and
   wide integers in the rendering *)
let budgets : Fingerprint.budget list =
  [
    Fingerprint.default_budget;
    { population = 4; generations = 2; measure_top = 1; seed = 0 };
    { population = 1; generations = 0; measure_top = 0; seed = -12345 };
    { population = 512; generations = 64; measure_top = 16; seed = max_int };
    { population = 3; generations = 1; measure_top = 1; seed = min_int };
  ]

let workload_ops =
  lazy
    (List.concat_map
       (fun batch ->
         List.map snd (Suites.operator_suite ~batch)
         @ List.concat_map
             (fun net -> List.map fst (Networks.tensor_ops net))
             (Networks.all ~batch))
       [ 1; 16 ])

let presets () =
  List.map
    (fun name -> (name, Option.get (Accelerator.by_name name)))
    Accelerator.preset_names

(* the custom intrinsic of examples/new_accelerator.ml: a 1D stencil
   unit whose source operand is gathered over a sliding window *)
let stencil8x4x4 () =
  let l = Iter.create "l" 8 in
  let p' = Iter.create "p'" 4 in
  let w = Iter.reduction "w" 4 in
  let compute =
    Compute_abs.create ~iters:[ l; p'; w ]
      ~dst:(Compute_abs.operand "Dst" [ l; p' ])
      ~srcs:
        [
          Compute_abs.operand "Src1" [ l; p'; w ];
          Compute_abs.operand "Src2" [ l; w ];
        ]
  in
  Intrinsic.create ~name:"stencil8x4x4" ~compute ~issue_cycles:2.
    ~latency_cycles:8. ()

(* the broadcast-dot intrinsic of test_codegen.ml *)
let dot_toy () =
  Intrinsic.create ~name:"dot-toy"
    ~compute:(Intrinsic.avx512_vnni ()).Intrinsic.compute ~issue_cycles:1.
    ~latency_cycles:4. ()

let dsl_dot16 () =
  match
    Intrinsic.of_dsl ~name:"dot16"
      "for {i1:16} for {r1:16r}: Dst[i1] += Src1[i1, r1] * Src2[r1]"
  with
  | Ok intr -> intr
  | Error msg -> Alcotest.fail msg

let custom_accels () =
  let with_intrinsics base intrinsics = { base with Accelerator.intrinsics } in
  [
    ( "stencil8x4x4",
      with_intrinsics (Accelerator.v100 ()) [ stencil8x4x4 () ] );
    ("dot-toy", with_intrinsics (Accelerator.avx512_cpu ()) [ dot_toy () ]);
    ( "dot16+stencil",
      with_intrinsics (Accelerator.mali_g76 ()) [ dsl_dot16 (); stencil8x4x4 () ]
    );
  ]

let check_keys ~what accel ops =
  List.iter
    (fun op ->
      List.iter
        (fun budget ->
          let want = Oracle.key ~accel ~op ~budget in
          let got = Fingerprint.key ~accel ~op ~budget in
          if got <> want then
            Alcotest.failf "%s: key of %s is %s, oracle %s" what
              op.Operator.name got want)
        budgets)
    ops

(* no workload operator carries a divisibility predicate, and scans carry
   only plain non-negativity ones: this one has both, with negative
   coefficients and nonzero constants *)
let predicated () =
  Dsl.parse_exn ~name:"pred"
    "for {i:8, j:4} for {r:3r}: out[i, j] += a[i + 2*r, j] * b[r, j] \
     where 2 | i + r + 1, 0 <= i - r - 1"

(* a predicate over an iteration outside the operator's own list renders
   its position as "i?" *)
let foreign_iteration () =
  let i = Iter.create "i" 4 and r = Iter.reduction "r" 4 in
  let stray = Iter.create "stray" 2 in
  let a = Tensor_decl.create "a" [ 4; 4 ] in
  let out = Tensor_decl.create "out" [ 4 ] in
  Operator.create ~name:"foreign"
    ~preds:
      [ Predicate.nonneg (Affine.sub (Affine.of_iter i) (Affine.of_iter stray)) ]
    ~iters:[ i; r ]
    ~output:(Operator.access out [ Affine.of_iter i ])
    ~inputs:[ Operator.access a [ Affine.of_iter i; Affine.of_iter r ] ]
    ~arith:Operator.Add_acc ()

let test_operators () =
  let ops =
    predicated () :: foreign_iteration () :: Lazy.force workload_ops
  in
  let rendered = Fingerprint.operator (foreign_iteration ()) in
  Alcotest.(check bool) "the stray position is rendered" true
    (List.exists
       (fun i -> String.sub rendered i 2 = "i?")
       (List.init (String.length rendered - 1) Fun.id));
  Alcotest.(check bool) "640 workload operators" true (List.length ops > 640);
  List.iter
    (fun op ->
      Alcotest.(check string) "operator rendering" (Oracle.operator op)
        (Fingerprint.operator op);
      List.iter
        (fun budget ->
          Alcotest.(check string) "op key"
            (Oracle.op_key ~op ~budget)
            (Fingerprint.op_key ~op ~budget))
        budgets)
    ops

let test_accelerators () =
  List.iter
    (fun (name, accel) ->
      let want = Oracle.accelerator accel in
      (* the first call renders, the second is served by the memo, the
         third renders a fresh value of the same preset *)
      Alcotest.(check string) (name ^ " rendered") want
        (Fingerprint.accelerator accel);
      Alcotest.(check string) (name ^ " memoized") want
        (Fingerprint.accelerator accel);
      Alcotest.(check string) (name ^ " fresh value") want
        (Fingerprint.accelerator
           { accel with Accelerator.name = accel.Accelerator.name }))
    (presets () @ custom_accels ())

let test_keys_presets () =
  let ops = Lazy.force workload_ops in
  List.iter (fun (name, accel) -> check_keys ~what:name accel ops) (presets ())

(* more distinct accelerator values than the memo holds, interleaved, so
   keys are computed across memo hits, misses and replacements *)
let test_keys_memo_churn () =
  let ops = List.filteri (fun i _ -> i mod 16 = 0) (Lazy.force workload_ops) in
  let accels =
    List.concat_map
      (fun _ -> List.map snd (presets () @ custom_accels ()))
      [ 1; 2; 3 ]
  in
  for _ = 1 to 2 do
    List.iter
      (fun accel -> check_keys ~what:accel.Accelerator.name accel ops)
      accels
  done

let test_custom_intrinsics () =
  let ops =
    [
      Ops.conv2d ~n:1 ~c:3 ~k:4 ~p:3 ~q:3 ~r:2 ~s:2 ();
      Ops.gemm ~m:64 ~n:64 ~k:64 ();
      Resnet.config (Resnet.by_label "C5");
    ]
    @ Suites.configs_per_kind ~batch:1 Ops.T2D
    @ Suites.configs_per_kind ~batch:1 Ops.SCN
    @ [ predicated () ]
  in
  List.iter
    (fun (name, accel) -> check_keys ~what:name accel ops)
    (custom_accels ())

(* recorded with the original renderer; a change here means every
   persisted plan, journal line and ring position is orphaned *)
let test_pinned () =
  let a100 = Option.get (Accelerator.by_name "a100") in
  let stencil =
    {
      (Accelerator.v100 ()) with
      Accelerator.intrinsics = [ stencil8x4x4 () ];
    }
  in
  let pred = predicated () in
  let odd =
    {
      Fingerprint.population = 1;
      generations = 0;
      measure_top = 0;
      seed = -12345;
    }
  in
  List.iter
    (fun (what, want, got) ->
      Alcotest.(check string) what want (got ()))
    [
      ( "a100 C5 default budget",
        "b9bcc7c42d58f0e14745aecee03c481a",
        fun () ->
          Fingerprint.key ~accel:a100
            ~op:(Resnet.config (Resnet.by_label "C5"))
            ~budget:Fingerprint.default_budget );
      ( "stencil8x4x4, predicated op, negative seed",
        "8fe3470dfb2ae1ba898de8272230bcb1",
        fun () -> Fingerprint.key ~accel:stencil ~op:pred ~budget:odd );
      ( "op key of the predicated op, negative seed",
        "54298c4cb24220fbd8e4033dda9fd4c6",
        fun () -> Fingerprint.op_key ~op:pred ~budget:odd );
    ]

let suites =
  [
    ( "fingerprint.oracle",
      [
        Alcotest.test_case "pinned-keys-from-the-original-renderer" `Quick
          test_pinned;
        Alcotest.test_case "operators-and-op-keys-match-oracle" `Quick
          test_operators;
        Alcotest.test_case "accelerators-match-oracle" `Quick test_accelerators;
        Alcotest.test_case "keys-match-oracle-on-every-preset" `Quick
          test_keys_presets;
        Alcotest.test_case "keys-match-oracle-across-memo-churn" `Quick
          test_keys_memo_churn;
        Alcotest.test_case "custom-intrinsic-keys-match-oracle" `Quick
          test_custom_intrinsics;
      ] );
  ]
