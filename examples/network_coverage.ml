(* Whole-network compilation (Table 2 / Fig 7 of the paper): compile
   ShuffleNet, where grouped and depthwise convolutions defeat both the
   XLA-style pattern matcher and the hand-tuned library, and report
   operator coverage and end-to-end latency.

   Run with: dune exec examples/network_coverage.exe *)

open Amos
module Networks = Amos_workloads.Networks
module Rng = Amos_tensor.Rng
module Pattern_xla = Amos_baselines.Pattern_xla
module Library = Amos_baselines.Library_backend
module Batch_compile = Amos_service.Batch_compile
module Plan_cache = Amos_service.Plan_cache

let () =
  let accel = Accelerator.a100 () in
  let net = Networks.shufflenet ~batch:1 in
  Printf.printf "network: %s (batch %d), %d operators\n" net.Networks.name
    net.Networks.batch (Networks.op_count net);
  Printf.printf "  mapped to Tensor Core by XLA-style pattern matching: %d\n"
    (Pattern_xla.mapped_count net);
  Printf.printf "  mappable by AMOS:                                   %d\n\n"
    (Compiler.mappable_count accel net);
  (* a fresh memory-only plan cache on one domain tunes every layer as
     [Compiler.tune] does *)
  let report, _ =
    Batch_compile.compile_network ~jobs:1 ~cache:(Plan_cache.create ()) accel
      net
  in
  Printf.printf "%-18s %5s %8s %12s\n" "layer" "mult" "spatial" "ms/instance";
  List.iter
    (fun (l : Compiler.layer_report) ->
      Printf.printf "%-18s %5d %8b %12.5f\n" l.Compiler.name l.Compiler.mult
        l.Compiler.mapped (1e3 *. l.Compiler.layer_seconds))
    report.Compiler.layers;
  let pytorch = Library.network_seconds ~rng:(Rng.create 5) accel net in
  Printf.printf "\nend-to-end: AMOS %.3f ms vs PyTorch-like %.3f ms (%.2fx)\n"
    (1e3 *. report.Compiler.network_seconds)
    (1e3 *. pytorch)
    (pytorch /. report.Compiler.network_seconds)
