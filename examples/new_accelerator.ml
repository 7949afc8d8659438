(* Bringing up a brand-new spatial accelerator (Sec 7.5): all AMOS needs
   is the hardware abstraction of its intrinsic -- no templates, no
   per-operator engineering.

   Here we invent a "stencil unit": 8 lanes, each reducing a 4-tap window
   over a pre-gathered [4 outputs x 4 taps] register tile in one
   instruction.  We describe it through the compute abstraction and
   immediately get mapping generation, validation, exploration, and
   verified execution for free.

   Run with: dune exec examples/new_accelerator.exe *)

open Amos_ir
open Amos
module Ops = Amos_workloads.Ops
module Rng = Amos_tensor.Rng

let stencil_unit () =
  (* Dst[l, p'] += Src1[l, p', w] * Src2[l, w]
     l : 8 lanes, p' : 4 outputs, w : 4-tap window (gathered at load) *)
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

let () =
  (* the same bring-up works with zero OCaml: intrinsics parse from their
     scalar statement in the DSL *)
  (match
     Intrinsic.of_dsl ~name:"dot16"
       "for {i1:16} for {r1:16r}: Dst[i1] += Src1[i1, r1] * Src2[r1]"
   with
  | Ok intr ->
      Printf.printf "parsed intrinsic %s from text: GEMM has %d mappings\n\n"
        intr.Intrinsic.name
        (Mapping_gen.count (Ops.gemm ~m:64 ~n:64 ~k:64 ()) intr)
  | Error msg -> failwith msg);
  let intr = stencil_unit () in
  Format.printf "new intrinsic via the hardware abstraction:@.%a@.@."
    Intrinsic.pp intr;
  let accel =
    let base = Accelerator.virtual_gemv () in
    {
      base with
      Accelerator.name = "Stencil-accelerator";
      intrinsics = [ intr ];
    }
  in
  (* mapping counts for the three virtual accelerators of the paper plus
     our new design *)
  let c3d = Ops.conv3d ~n:2 ~c:4 ~k:4 ~d:4 ~p:4 ~q:4 ~t:3 ~r:3 ~s:3 () in
  List.iter
    (fun (name, i) ->
      Printf.printf "C3D mapping types on %-20s %4d\n" name
        (Mapping_gen.count c3d i))
    [
      ("AXPY unit:", Intrinsic.axpy_unit ());
      ("GEMV unit:", Intrinsic.gemv_unit ());
      ("CONV unit:", Intrinsic.conv_unit ());
      ("stencil unit (ours):", intr);
    ];
  print_newline ();
  (* tune and verify a 1D convolution on the new design *)
  let op = Ops.conv1d ~n:4 ~c:3 ~k:5 ~p:12 ~r:4 () in
  let plan = Compiler.tune accel op in
  Printf.printf "tuned: %s\n" (Compiler.describe plan);
  let ok =
    List.for_all
      (fun m ->
        Compiler.verify ~rng:(Rng.create 2) accel m (Schedule.default m))
      (Compiler.mappings accel op)
  in
  Printf.printf "all mappings verified on the new accelerator: %b\n" ok;
  if not ok then exit 1
