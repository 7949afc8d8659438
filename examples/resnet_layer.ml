(* Compile every ResNet-18 convolution layer (Table 5 of the paper) for
   the A100-like accelerator, reporting the chosen mapping and the
   speedup over the CuDNN-like fixed-mapping library.

   Run with: dune exec examples/resnet_layer.exe *)

open Amos
module Resnet = Amos_workloads.Resnet
module Rng = Amos_tensor.Rng
module Library = Amos_baselines.Library_backend

let () =
  let accel = Accelerator.a100 () in
  Printf.printf "%-4s %-62s %9s %9s %8s\n" "Layer" "chosen compute mapping"
    "AMOS(ms)" "lib(ms)" "speedup";
  List.iter
    (fun cfg ->
      let op = Resnet.config cfg in
      let plan = Compiler.tune accel op in
      let lib = Library.op_seconds ~rng:(Rng.create 7) accel op in
      let mapping_text =
        match plan.Compiler.target with
        | Compiler.Spatial p ->
            Mapping.describe p.Explore.candidate.Explore.mapping
        | Compiler.Scalar _ -> "(scalar)"
      in
      Printf.printf "%-4s %-62s %9.4f %9.4f %7.2fx\n%!" cfg.Resnet.label
        mapping_text
        (1e3 *. Compiler.seconds plan)
        (1e3 *. lib)
        (lib /. Compiler.seconds plan))
    Resnet.table5
