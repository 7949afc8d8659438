open Amos
module Ops = Amos_workloads.Ops
module Rng = Amos_tensor.Rng

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let roundtrip_tests =
  [
    Alcotest.test_case "save-load-roundtrip" `Quick (fun () ->
        let accel = Accelerator.a100 () in
        let op = Ops.conv2d ~n:4 ~c:16 ~k:16 ~p:8 ~q:8 ~r:3 ~s:3 () in
        let plan = Compiler.tune accel op in
        match plan.Compiler.target with
        | Compiler.Scalar _ -> Alcotest.fail "expected spatial plan"
        | Compiler.Spatial p ->
            let c = p.Explore.candidate in
            let text = Plan_io.save c.Explore.mapping c.Explore.schedule in
            (match Plan_io.load accel op text with
            | None -> Alcotest.fail "failed to reload plan"
            | Some (m, sched) ->
                Alcotest.(check string) "same compute mapping"
                  (Mapping.describe c.Explore.mapping)
                  (Mapping.describe m);
                let t_orig =
                  Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
                    (Codegen.lower accel c.Explore.mapping c.Explore.schedule)
                in
                let t_loaded =
                  Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
                    (Codegen.lower accel m sched)
                in
                Alcotest.(check (float 1e-12)) "same performance" t_orig t_loaded));
    Alcotest.test_case "load-rejects-wrong-operator" `Quick (fun () ->
        let accel = toy_accel () in
        let op1 = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:2 ~q:2 ~r:2 ~s:2 () in
        let op2 = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        match Compiler.mappings accel op1 with
        | m :: _ ->
            let text = Plan_io.save m (Schedule.default m) in
            Alcotest.(check bool) "rejected" true
              (Plan_io.load accel op2 text = None)
        | [] -> Alcotest.fail "no mapping");
    Alcotest.test_case "load-rejects-unknown-intrinsic" `Quick (fun () ->
        let toy = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:2 ~q:2 ~r:2 ~s:2 () in
        match Compiler.mappings toy op with
        | m :: _ ->
            let text = Plan_io.save m (Schedule.default m) in
            (* the A100 has no 2x2x2 toy intrinsic *)
            Alcotest.(check bool) "rejected" true
              (Plan_io.load (Accelerator.a100 ()) op text = None)
        | [] -> Alcotest.fail "no mapping");
    Alcotest.test_case "load-rejects-garbage" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        Alcotest.(check bool) "rejected" true
          (Plan_io.load accel op "nonsense\n" = None));
    Alcotest.test_case "out-of-range-src-perm-rejected" `Quick (fun () ->
        (* a source index that does not exist, or a negative one, is no
           permutation: [None], like the ones Algorithm 1 rejects *)
        let accel = toy_accel () in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        let m = List.hd (Compiler.mappings accel op) in
        let text = Plan_io.save m (Schedule.default m) in
        List.iter
          (fun perm ->
            let bad =
              Str.global_replace (Str.regexp "src_perm [0-9,]*")
                ("src_perm " ^ perm) text
            in
            Alcotest.(check bool) (perm ^ " rejected") true
              (Plan_io.load accel op bad = None))
          [ "0,5"; "-1,0"; "1,1"; "0,0" ]);
    Alcotest.test_case "renamed-operator-binds-by-position" `Quick (fun () ->
        (* the [iters] line maps the saved operator's names onto the
           requester's iterations; without it the plan binds by name *)
        let accel = toy_accel () in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        let renamed =
          Amos_ir.Dsl.parse_exn
            "for {ii:4, jj:4} for {r:4r}: out[ii,jj] += a[ii,r] * b[r,jj]"
        in
        let m = List.hd (Compiler.mappings accel op) in
        let text = Plan_io.save m (Schedule.default m) in
        (match Plan_io.load accel renamed text with
        | Some (m', sched') ->
            Alcotest.(check bool) "bound to the renamed operator" true
              (m'.Mapping.matching.Matching.view.Mac_view.op == renamed);
            Alcotest.(check string) "same plan, renamed"
              (Str.global_replace (Str.regexp "\\b\\([ij]\\)\\b") "\\1\\1" text)
              (Plan_io.save m' sched')
        | None -> Alcotest.fail "renamed operator failed to bind");
        let legacy =
          String.concat "\n"
            (List.filter
               (fun l -> not (String.length l > 6 && String.sub l 0 6 = "iters "))
               (String.split_on_char '\n' text))
        in
        Alcotest.(check bool) "an older text binds by name" true
          (Plan_io.load accel renamed legacy = None
          && Plan_io.load accel op legacy <> None));
    Alcotest.test_case "loaded-plan-verifies-functionally" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        match Compiler.mappings accel op with
        | m :: _ -> (
            let text = Plan_io.save m (Schedule.default m) in
            match Plan_io.load accel op text with
            | Some (m', sched') ->
                Alcotest.(check bool) "verifies" true
                  (Compiler.verify ~rng:(Rng.create 301) accel m' sched')
            | None -> Alcotest.fail "reload failed")
        | [] -> Alcotest.fail "no mapping");
  ]

(* Every operator of the evaluation suite (Sec 7.2's 15 kinds x ~8
   configs) must round-trip: for each op that has a valid mapping on
   some accelerator, saving the default plan and loading it back yields
   the same mapping and a validating schedule.  The ascend preset's
   cube + vector intrinsics cover the reduction kinds (MEN/VAR/SCN/GMV)
   the A100's matrix intrinsics cannot map. *)
let suite_roundtrip_tests =
  let accels = [ Accelerator.a100 (); Accelerator.ascend_like () ] in
  let roundtrips = ref 0 and unmappable = ref 0 in
  let check_op (kind, (op : Amos_ir.Operator.t)) =
    let accel =
      List.find_opt (fun a -> Compiler.mappings a op <> []) accels
    in
    match accel with
    | None -> incr unmappable
    | Some accel -> (
        let m = List.hd (Compiler.mappings accel op) in
        let sched = Schedule.default m in
        let text = Plan_io.save m sched in
        match Plan_io.load accel op text with
        | None ->
            Alcotest.failf "%s op %s failed to reload"
              (Ops.kind_name kind) op.Amos_ir.Operator.name
        | Some (m', sched') ->
            incr roundtrips;
            Alcotest.(check string)
              (op.Amos_ir.Operator.name ^ " mapping preserved")
              (Mapping.describe m) (Mapping.describe m');
            Alcotest.(check bool)
              (op.Amos_ir.Operator.name ^ " schedule validates")
              true
              (Schedule.validate m' sched'))
  in
  [
    Alcotest.test_case "whole-suite-roundtrip" `Quick (fun () ->
        List.iter check_op (Amos_workloads.Suites.operator_suite ~batch:1);
        (* the suite is overwhelmingly mappable; a regression that
           silently skips most ops must not pass as vacuous success *)
        Alcotest.(check bool)
          (Printf.sprintf "roundtripped %d ops (%d unmappable)" !roundtrips
             !unmappable)
          true
          (!roundtrips > 80 && !unmappable < 40));
  ]

(* provenance header: written by migration-winning stores, optional in
   every direction — pre-migration plan files have no provenance line,
   and provenance-carrying files load on readers that ignore it *)
let provenance_tests =
  [
    Alcotest.test_case "provenance-roundtrip" `Quick (fun () ->
        let accel = toy_accel () in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        match Compiler.mappings accel op with
        | m :: _ -> (
            let sched = Schedule.default m in
            let prov =
              { Plan_io.source_accel = "Ascend-like"; source_fingerprint = "abc123" }
            in
            let text = Plan_io.save ~provenance:prov m sched in
            (match Plan_io.provenance text with
            | Some p ->
                Alcotest.(check string) "accel" "Ascend-like" p.Plan_io.source_accel;
                Alcotest.(check string) "fingerprint" "abc123"
                  p.Plan_io.source_fingerprint
            | None -> Alcotest.fail "provenance lost");
            (* the extra header line must not break loading *)
            match Plan_io.load accel op text with
            | Some (m', _) ->
                Alcotest.(check string) "mapping preserved"
                  (Mapping.describe m) (Mapping.describe m')
            | None -> Alcotest.fail "provenance-carrying plan failed to load")
        | [] -> Alcotest.fail "no mapping");
    Alcotest.test_case "accel-name-with-spaces" `Quick (fun () ->
        let prov =
          { Plan_io.source_accel = "Mali G78 like"; source_fingerprint = "ff" }
        in
        let accel = toy_accel () in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        match Compiler.mappings accel op with
        | m :: _ -> (
            let text = Plan_io.save ~provenance:prov m (Schedule.default m) in
            match Plan_io.provenance text with
            | Some p ->
                Alcotest.(check string) "spaces preserved" "Mali G78 like"
                  p.Plan_io.source_accel
            | None -> Alcotest.fail "provenance lost")
        | [] -> Alcotest.fail "no mapping");
    Alcotest.test_case "pre-migration-files-have-no-provenance" `Quick
      (fun () ->
        let accel = toy_accel () in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        match Compiler.mappings accel op with
        | m :: _ ->
            (* [save] without ~provenance is exactly the pre-migration
               format: no provenance line, still loads *)
            let text = Plan_io.save m (Schedule.default m) in
            Alcotest.(check bool) "no provenance" true
              (Plan_io.provenance text = None);
            Alcotest.(check bool) "still loads" true
              (Plan_io.load accel op text <> None)
        | [] -> Alcotest.fail "no mapping");
  ]

let suites =
  [
    ("plan_io.roundtrip", roundtrip_tests);
    ("plan_io.suite", suite_roundtrip_tests);
    ("plan_io.provenance", provenance_tests);
  ]
