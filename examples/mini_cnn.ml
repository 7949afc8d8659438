(* End-to-end network compilation: build a small CNN as a dataflow
   graph, compile every layer through AMOS onto the simulated Tensor
   Core, run it functionally, and check the result against the reference
   interpreter.  This is whole-model compilation (Sec 7.4) in miniature,
   with bit-level verification the real hardware flow cannot give you.

   Run with: dune exec examples/mini_cnn.exe *)

open Amos
module Nd = Amos_tensor.Nd
module Rng = Amos_tensor.Rng

let () =
  let graph = Graph.mini_cnn ~channels:4 () in
  Printf.printf "mini-cnn: input %s -> output %s\n"
    (String.concat "x" (List.map string_of_int (Graph.input_shape graph)))
    (String.concat "x" (List.map string_of_int (Graph.output_shape graph)));
  let accel =
    let base = Accelerator.v100 () in
    { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }
  in
  let rng = Rng.create 2022 in
  let input = Nd.random rng (Graph.input_shape graph) in
  let weights = Graph.random_weights rng graph in
  let reference = Graph.run_reference graph ~input ~weights in
  let compiled = Graph.run_compiled accel graph ~input ~weights in
  let ok = Nd.approx_equal ~tol:1e-3 reference compiled in
  Printf.printf "max |reference - compiled| = %g\n"
    (Nd.max_abs_diff reference compiled);
  Printf.printf "network-level verification: %s\n"
    (if ok then "PASS" else "FAIL");
  (* show where each tensor layer ended up; the relus run on the scalar
     units *)
  List.iter
    (fun (_, op) ->
      Printf.printf "  %-6s -> %s\n" op.Amos_ir.Operator.name
        (match Compiler.mappings accel op with
        | m :: _ -> Mapping.describe m
        | [] -> "scalar units (no valid mapping)"))
    (Graph.tensor_ops graph);
  if not ok then exit 1
