(* The allocation-lean tuner against its recompute-everything reference.

   [Explore.tune] prepares lowering once per mapping, memoizes predicted
   seconds per schedule, hoists the perf-model constants, draws
   schedules from a precomputed [Schedule.space], and screens on
   [Codegen.summarize_prepared] instead of building kernels;
   [Mapping_gen.generate_op] runs Algorithm 1 through one packed-word
   workspace.  [Amos_reference.Recompute] does none of that: it lowers
   every candidate in full and validates every matching on its own.
   The contract is that the two are *bit-identical*: same best plan,
   same (predicted, measured) history in the same order, same
   evaluation counts, same matchings, across budgets and accelerators.
   These tests pin that contract (the case names read "memo on = memo
   off": memoized path = reference); the `tuner_throughput` bench gates
   the speed side. *)

open Amos
module Resnet = Amos_workloads.Resnet
module Ops = Amos_workloads.Ops
module Suites = Amos_workloads.Suites
module Recompute = Amos_reference.Recompute

let tune_pair ~accel ~mappings (population, generations, measure_top) =
  ( Explore.tune ~population ~generations ~measure_top ~accel ~mappings (),
    Recompute.tune ~population ~generations ~measure_top ~accel ~mappings () )

let check_identical name (a : Explore.result) (b : Explore.result) =
  let open Alcotest in
  check (float 0.) (name ^ ": best predicted") a.best.predicted
    b.best.predicted;
  check (float 0.) (name ^ ": best measured") a.best.measured b.best.measured;
  check bool
    (name ^ ": best schedule")
    true
    (a.best.candidate.schedule = b.best.candidate.schedule);
  check (pair string string)
    (name ^ ": best mapping")
    (Explore.mapping_key a.best.candidate.mapping)
    (Explore.mapping_key b.best.candidate.mapping);
  check int (name ^ ": evaluations") a.evaluations b.evaluations;
  check int (name ^ ": history length") (List.length a.history)
    (List.length b.history);
  check bool (name ^ ": history") true (a.history = b.history);
  check bool (name ^ ": failures") true (a.failures = b.failures)

(* Budgets as (population, generations, measure_top).  The tuner reads
   no caller RNG, so the rows vary the budget instead: each budget draws
   other schedules, and between them every row reaches the unroll menu
   (a swapped [Schedule.unroll_choices] changes the chosen plan in all
   three rows: the GPU rows at 16 x 4, avx512 at 6 x 3). *)
let budgets = [ (6, 3, 2); (16, 4, 3) ]

(* One matrix row per accelerator: the full two-phase tune over every
   mapping of a real workload, against the reference, at every budget. *)
let tune_case label mk_accel op =
  Alcotest.test_case (label ^ "-memo-on=off") `Quick (fun () ->
      let accel = mk_accel () in
      let mappings = Compiler.mappings accel op in
      Alcotest.(check bool) (label ^ ": has mappings") true (mappings <> []);
      List.iter
        (fun ((p, g, m) as budget) ->
          let fast, reference = tune_pair ~accel ~mappings budget in
          check_identical
            (Printf.sprintf "%s budget=%dx%d top %d" label p g m)
            fast reference)
        budgets)

let tune_tests =
  [
    tune_case "a100-resnet-c5" Accelerator.a100
      (Resnet.config (Resnet.by_label "C5"));
    tune_case "v100-resnet-c5" Accelerator.v100
      (Resnet.config (Resnet.by_label "C5"));
    tune_case "avx512-gemm" Accelerator.avx512_cpu
      (Ops.gemm ~m:64 ~n:48 ~k:32 ());
  ]

(* The Algorithm-1 enumeration itself: the workspace and the structural
   memo in [Mapping_gen.generate_op] must emit exactly the matchings the
   reference's per-candidate validation emits, in the same order, on a
   structure's first request and on its repeat.  Inputs: ResNet C5 on
   the A100 intrinsics, and every suite kind's representative at batch
   16 on the intrinsics of every preset. *)
let generate_inputs () =
  let c5 = Resnet.config (Resnet.by_label "C5") in
  List.map (fun intr -> (c5, intr)) (Accelerator.a100 ()).Accelerator.intrinsics
  @ List.concat_map
      (fun name ->
        let accel = Option.get (Accelerator.by_name name) in
        List.concat_map
          (fun kind ->
            let op = Suites.representative ~batch:16 kind in
            List.map (fun intr -> (op, intr)) accel.Accelerator.intrinsics)
          Ops.all_kinds)
      Accelerator.preset_names

let generate_tests =
  [
    Alcotest.test_case "generate-memo-on=off" `Quick (fun () ->
        List.iter
          (fun (op, (intr : Intrinsic.t)) ->
            let label = op.Amos_ir.Operator.name ^ " " ^ intr.Intrinsic.name in
            let reference = Recompute.generate_op op intr in
            List.iter
              (fun call ->
                let fast = Mapping_gen.generate_op op intr in
                Alcotest.(check int)
                  (Printf.sprintf "%s, %s call: count" label call)
                  (List.length reference) (List.length fast);
                Alcotest.(check bool)
                  (Printf.sprintf "%s, %s call: matchings" label call)
                  true
                  (Test_memo.same_matchings ~op ~intr fast reference))
              [ "first"; "repeat" ])
          (generate_inputs ()));
  ]

let suites =
  [
    ("throughput.tune", tune_tests);
    ("throughput.generate", generate_tests);
  ]
