(* The structural mapping memo in [Mapping_gen.generate], and the
   one-buffer [Matching.describe], against what they replace.

   A memo hit returns a key's validated list rebuilt over a new view and
   a new intrinsic, without re-running Algorithm 1.  These tests compare
   every list, on its first request and on a repeat, with the
   reference's enumeration, which validates each candidate on its own;
   they check that inputs which enumerate differently never share a key;
   and that domains generating at once get the sequential result.  The
   describe tests hold the renderer byte-identical to
   {!Describe_oracle}: the text seeds every mapping's RNG stream. *)

open Amos
open Amos_ir
module Suites = Amos_workloads.Suites
module Networks = Amos_workloads.Networks
module Recompute = Amos_reference.Recompute

(* the same matchings in the same order, over the caller's operator and
   intrinsic: with those fixed, the correspondence and the assignment
   determine the Algorithm-1 matrices *)
let same_matchings ~op ~(intr : Intrinsic.t) ms ms' =
  List.length ms = List.length ms'
  && List.for_all2
       (fun (m : Matching.t) (m' : Matching.t) ->
         m.Matching.view.Mac_view.op == op
         && m.Matching.intr == intr
         && m.Matching.src_perm = m'.Matching.src_perm
         && Array.for_all2 (Option.equal Iter.equal) m.Matching.assign
              m'.Matching.assign)
       ms ms'

(* [generate_op] twice (the first call may miss, the second hits while
   the memo has room) against the reference's fresh enumeration *)
let memo_agrees ?(filter = true) op intr =
  let reference = Recompute.generate_op ~filter op intr in
  let first = Mapping_gen.generate_op ~filter op intr in
  let again = Mapping_gen.generate_op ~filter op intr in
  same_matchings ~op ~intr first reference
  && same_matchings ~op ~intr again reference

(* every distinct operator of the suite and the six networks' tensor
   layers, at batch 1 and 16, paired with each intrinsic of every preset
   (presets that share an intrinsic share its pairs) *)
let workload_instances () =
  let seen = Hashtbl.create 1024 in
  let ops =
    List.concat_map
      (fun batch ->
        List.map snd (Suites.operator_suite ~batch)
        @ List.concat_map
            (fun net -> List.map fst (Networks.tensor_ops net))
            (Networks.all ~batch))
      [ 1; 16 ]
  in
  List.concat_map
    (fun name ->
      List.concat_map
        (fun (intr : Intrinsic.t) ->
          List.filter_map
            (fun op ->
              let key = (intr.Intrinsic.name, Dsl.print op) in
              if Hashtbl.mem seen key then None
              else begin
                Hashtbl.add seen key ();
                Some (intr, op)
              end)
            ops)
        (Option.get (Accelerator.by_name name)).Accelerator.intrinsics)
    Accelerator.preset_names

let key_of op intr =
  Mapping_gen.structure_key ~filter:true
    (Option.get (Mac_view.of_operator op))
    intr

let count op intr = List.length (Mapping_gen.generate_op op intr)

let mma_unit ~m ~n =
  Result.get_ok
    (Intrinsic.of_dsl ~name:"unit"
       (Printf.sprintf
          "for {i1:%d, i2:%d} for {r1:4r}: Dst[i1, i2] += Src1[i1, r1] * \
           Src2[r1, i2]"
          m n))

let memo_tests =
  [
    Alcotest.test_case "four-domains-generate-the-sequential-result" `Quick
      (fun () ->
        let accel = Accelerator.a100 () in
        let arr =
          Array.of_list
            (List.concat_map
               (fun (_, op) ->
                 List.map (fun intr -> (op, intr)) accel.Accelerator.intrinsics)
               (Suites.operator_suite ~batch:8))
        in
        let expected =
          Array.map (fun (op, intr) -> Recompute.generate_op op intr) arr
        in
        (* each domain walks the inputs from its own offset, so the
           domains race on the same keys in different orders *)
        let n = Array.length arr in
        let walk d () =
          Array.init n (fun j ->
              let i = (j + (d * n / 4)) mod n in
              let op, intr = arr.(i) in
              (i, Mapping_gen.generate_op op intr))
        in
        let domains = List.init 4 (fun d -> Domain.spawn (walk d)) in
        List.iter
          (fun d ->
            Array.iter
              (fun (i, got) ->
                let op, intr = arr.(i) in
                if not (same_matchings ~op ~intr got expected.(i)) then
                  Alcotest.failf "%s on %s: a domain's result differs"
                    op.Operator.name intr.Intrinsic.name)
              (Domain.join d))
          domains);
    Alcotest.test_case "memo-equals-fresh-enumeration-on-every-preset" `Quick
      (fun () ->
        let instances = workload_instances () in
        let keys = Hashtbl.create 64 in
        List.iter
          (fun ((intr : Intrinsic.t), op) ->
            Option.iter
              (fun view ->
                Hashtbl.replace keys
                  (Mapping_gen.structure_key ~filter:true view intr)
                  ())
              (Mac_view.of_operator op);
            if not (memo_agrees op intr) then
              Alcotest.failf "%s on %s: memo differs from reference"
                op.Operator.name intr.Intrinsic.name)
          instances;
        (* most pairs share a structure with an earlier one *)
        let pairs = List.length instances in
        Alcotest.(check bool)
          (Printf.sprintf "%d keys for %d pairs" (Hashtbl.length keys) pairs)
          true
          (5 * Hashtbl.length keys < pairs));
    Alcotest.test_case "equal-columns-different-independence-never-share"
      `Quick (fun () ->
        (* the columns of i and r are equal in both operators; r is
           independent only in [a[i, r]] *)
        let window =
          Dsl.parse_exn "for {i:8} for {r:3r}: out[i] += a[i + r] * w[r]"
        and plain = Dsl.parse_exn "for {i:8} for {r:3r}: out[i] += a[i, r] * w[r]" in
        let intr = Intrinsic.avx512_vnni () in
        Alcotest.(check bool) "keys differ" true
          (key_of window intr <> key_of plain intr);
        (* both orders, so each operator is asked once after the other *)
        List.iter
          (fun op ->
            Alcotest.(check bool) "memo = reference" true (memo_agrees op intr))
          [ window; plain; window ];
        Alcotest.(check bool) "the filter tells them apart" true
          (count window intr <> count plain intr));
    Alcotest.test_case "same-name-different-extents-never-share" `Quick
      (fun () ->
        (* equal extents make the operand swap an automorphism, which
           drops one of the two correspondences *)
        let square = mma_unit ~m:4 ~n:4 and oblong = mma_unit ~m:4 ~n:8 in
        let op = Amos_workloads.Ops.gemm ~m:16 ~n:16 ~k:16 () in
        Alcotest.(check bool) "keys differ" true
          (key_of op square <> key_of op oblong);
        List.iter
          (fun intr ->
            Alcotest.(check bool) "memo = reference" true (memo_agrees op intr))
          [ square; oblong; square ];
        Alcotest.(check bool) "the automorphism tells them apart" true
          (count op square <> count op oblong));
  ]

let describe_tests =
  [
    Alcotest.test_case "describe-equals-oracle-on-every-preset-unfiltered"
      `Quick (fun () ->
        let seen = ref 0 in
        List.iter
          (fun ((intr : Intrinsic.t), op) ->
            List.iter
              (fun m ->
                incr seen;
                let got = Matching.describe m
                and want = Describe_oracle.describe m in
                if got <> want then
                  Alcotest.failf "%s on %s: %S <> %S" op.Operator.name
                    intr.Intrinsic.name got want)
              (Mapping_gen.generate_op ~filter:false op intr))
          (workload_instances ());
        Alcotest.(check bool) "matchings compared" true (!seen > 0));
  ]

let suites =
  [ ("mapping_gen.memo", memo_tests); ("matching.describe", describe_tests) ]
