(* End-to-end network compilation: build a small CNN as a pipeline,
   compile every layer through AMOS onto the simulated Tensor Core, run
   it functionally, and check the result against the reference
   interpreter.  This is whole-model compilation (Sec 7.4) in miniature,
   with bit-level verification the real hardware flow cannot give you.

   Run with: dune exec examples/mini_cnn.exe *)

open Amos
module Nd = Amos_tensor.Nd
module Rng = Amos_tensor.Rng

let () =
  let pipeline = Pipeline.mini_cnn ~channels:4 () in
  Printf.printf "pipeline %s: input %s -> output %s\n" pipeline.Pipeline.name
    (String.concat "x" (List.map string_of_int (Pipeline.input_shape pipeline)))
    (String.concat "x" (List.map string_of_int (Pipeline.output_shape pipeline)));
  let accel =
    let base = Accelerator.v100 () in
    { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }
  in
  let rng = Rng.create 2022 in
  let input = Nd.random rng (Pipeline.input_shape pipeline) in
  let weights = Pipeline.random_weights rng pipeline in
  let reference = Pipeline.run_reference pipeline ~input ~weights in
  let compiled = Pipeline.run_compiled accel pipeline ~input ~weights in
  Printf.printf "max |reference - compiled| = %g\n"
    (Nd.max_abs_diff reference compiled);
  Printf.printf "network-level verification: %s\n"
    (if Nd.approx_equal ~tol:1e-3 reference compiled then "PASS" else "FAIL");
  (* show where each layer ended up *)
  List.iter
    (function
      | Pipeline.Relu -> Printf.printf "  relu: scalar units\n"
      | Pipeline.Op op ->
          Printf.printf "  %-6s -> %s\n" op.Amos_ir.Operator.name
            (match Compiler.mappings accel op with
            | m :: _ -> Mapping.describe m
            | [] -> "scalar units (no valid mapping)"))
    pipeline.Pipeline.stages
