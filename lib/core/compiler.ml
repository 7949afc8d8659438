open Amos_ir
module Networks = Amos_workloads.Networks

let log_src = Logs.Src.create "amos.compiler" ~doc:"AMOS compilation driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type target =
  | Spatial of Explore.plan
  | Scalar of float

type plan = {
  op : Operator.t;
  accel : Accelerator.t;
  target : target;
}

let mappings = Explore.mappings

(* AMOS also tunes scalar code for the CUDA cores; when a valid spatial
   mapping exists but loses to the scalar roofline (e.g. depthwise conv
   where unused intrinsic dimensions inflate memory traffic 16x), the
   scalar plan is chosen. *)
let tuned_scalar_seconds accel op =
  Spatial_sim.Scalar_backend.estimate_seconds ~efficiency:0.5
    ~memory_efficiency:0.9 accel.Accelerator.config op

(* The one spatial-versus-scalar race, shared by [tune] and the plan
   service's fresh tunes: the best measured plan must be finite and no
   slower than the scalar roofline, or the operator stays scalar. *)
let decide accel op result =
  let scalar = tuned_scalar_seconds accel op in
  match result with
  | Some { Explore.best; _ }
    when best.Explore.measured < infinity && best.Explore.measured <= scalar ->
      Spatial best
  | Some _ | None -> Scalar scalar

let tune ?population ?generations ?measure_top accel op =
  let result =
    Explore.tune_op ?population ?generations ?measure_top ~accel op
  in
  let target = decide accel op result in
  Log.info (fun m ->
      m "%s -> %s" op.Operator.name
        (match target with
        | Spatial p ->
            Printf.sprintf "spatial %.3f us: %s" (1e6 *. p.Explore.measured)
              (Mapping.describe p.Explore.candidate.Explore.mapping)
        | Scalar s -> Printf.sprintf "scalar %.3f us" (1e6 *. s)));
  { op; accel; target }

let seconds plan =
  match plan.target with
  | Spatial p -> p.Explore.measured
  | Scalar s -> s

let gflops plan = Operator.flops plan.op /. seconds plan /. 1e9
let is_mapped plan = match plan.target with Spatial _ -> true | Scalar _ -> false

let describe plan =
  match plan.target with
  | Spatial p ->
      Printf.sprintf "%s: %s  (%.3f ms, %.1f GFLOPS)" plan.op.Operator.name
        (Mapping.describe p.Explore.candidate.Explore.mapping)
        (1e3 *. seconds plan) (gflops plan)
  | Scalar _ ->
      Printf.sprintf "%s: scalar fallback (%.3f ms)" plan.op.Operator.name
        (1e3 *. seconds plan)

let verify ~rng accel mapping schedule =
  let op =
    mapping.Mapping.matching.Matching.view.Mac_view.op
  in
  let inputs = Amos_tensor.Reference.random_inputs rng op in
  let expected = Amos_tensor.Reference.run op ~inputs in
  let kernel = Codegen.lower accel mapping schedule in
  match
    Spatial_sim.Machine.run accel.Accelerator.config kernel ~inputs
      ~out_shape:op.Operator.output.Operator.tensor.Tensor_decl.shape
  with
  | got -> Amos_tensor.Nd.approx_equal ~tol:1e-4 expected got
  | exception Spatial_sim.Machine.Infeasible _ -> false

type layer_report = {
  name : string;
  mult : int;
  mapped : bool;
  layer_seconds : float;
}

type network_report = {
  network_name : string;
  total_ops : int;
  mapped_ops : int;
  network_seconds : float;
  layers : layer_report list;
}

let mappable_count accel (net : Networks.t) =
  List.fold_left
    (fun acc (layer, mult) ->
      match layer with
      | Networks.Tensor_op op
        when List.exists
               (fun intr -> Mapping_gen.generate_op op intr <> [])
               accel.Accelerator.intrinsics ->
          acc + mult
      | Networks.Tensor_op _ | Networks.Elementwise _ -> acc)
    0 net.Networks.layers

let price_network accel price (net : Networks.t) =
  let layers =
    List.map
      (fun (layer, mult) ->
        match layer with
        | Networks.Tensor_op op ->
            let mapped, layer_seconds = price op in
            { name = op.Operator.name; mult; mapped; layer_seconds }
        | Networks.Elementwise { name; elems } ->
            {
              name;
              mult;
              mapped = false;
              layer_seconds =
                Spatial_sim.Scalar_backend.estimate_elementwise
                  accel.Accelerator.config ~elems;
            })
      net.Networks.layers
  in
  {
    network_name = net.Networks.name;
    total_ops = Networks.op_count net;
    mapped_ops =
      List.fold_left
        (fun acc l -> if l.mapped then acc + l.mult else acc)
        0 layers;
    network_seconds =
      List.fold_left
        (fun acc l -> acc +. (float_of_int l.mult *. l.layer_seconds))
        0. layers;
    layers;
  }
