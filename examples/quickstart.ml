(* Quickstart: the full AMOS flow on one operator.

   1. define a tensor computation in the DSL (Fig 3a)
   2. look at the target's hardware abstraction (Sec 4)
   3. enumerate + validate software-hardware mappings (Sec 5.1-5.2)
   4. explore mappings x schedules with the performance model (Sec 5.3)
   5. lower to an executable kernel and verify it bit-for-bit against the
      reference interpreter on the simulated accelerator.

   Run with: dune exec examples/quickstart.exe *)

open Amos
module Rng = Amos_tensor.Rng

let () =
  (* 1. software definition: the small 2D convolution of the paper's
        running example (Fig 3a), written in the textual DSL *)
  let op =
    Amos_ir.Dsl.parse_exn ~name:"c2d"
      "for {n:1, k:4, p:2, q:2} for {c:1r, r:3r, s:3r}:\n\
      \  out[n, k, p, q] += image[n, c, p + r, q + s] * weight[k, c, r, s]"
  in
  Format.printf "software definition:@.  %a@.@." Amos_ir.Operator.pp op;

  (* 2. the target: a simplified 2x2x2 Tensor Core (Fig 3), described
        through the hardware abstraction *)
  let intr = Intrinsic.toy_mma_2x2x2 () in
  let accel =
    let base = Accelerator.v100 () in
    { base with Accelerator.intrinsics = [ intr ] }
  in
  Format.printf "hardware abstraction:@.%a@.@." Intrinsic.pp intr;

  (* 3. mapping generation + Algorithm-1 validation *)
  let mappings = Compiler.mappings accel op in
  Printf.printf "valid software-hardware mappings: %d (paper: 35)\n"
    (List.length mappings);
  List.iteri
    (fun i m -> if i < 5 then Printf.printf "  %s\n" (Mapping.describe m))
    mappings;
  Printf.printf "  ...\n\n";

  (* 4. joint exploration of mappings and schedules *)
  let plan = Compiler.tune accel op in
  Printf.printf "best plan: %s\n\n" (Compiler.describe plan);

  (* 5. functional verification of every mapping on the simulator *)
  let rng = Rng.create 2022 in
  let ok =
    List.for_all
      (fun m -> Compiler.verify ~rng accel m (Schedule.default m))
      mappings
  in
  Printf.printf "all %d mappings verified against the reference: %b\n"
    (List.length mappings) ok;
  if not ok then exit 1;

  (* bonus: the pseudo-kernel for the chosen plan *)
  match plan.Compiler.target with
  | Compiler.Spatial p ->
      print_newline ();
      print_string
        (Codegen.emit_pseudo accel p.Explore.candidate.Explore.mapping
           p.Explore.candidate.Explore.schedule)
  | Compiler.Scalar _ -> ()
