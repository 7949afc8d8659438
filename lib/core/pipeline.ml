open Amos_ir
module Nd = Amos_tensor.Nd

type stage =
  | Op of Operator.t
  | Relu

type t = {
  name : string;
  stages : stage list;
}

let op_input_shape (op : Operator.t) =
  match op.Operator.inputs with
  | first :: _ -> first.Operator.tensor.Tensor_decl.shape
  | [] -> invalid_arg "Pipeline: operator without inputs"

let op_output_shape (op : Operator.t) =
  op.Operator.output.Operator.tensor.Tensor_decl.shape

let create ~name stages =
  let rec check prev = function
    | [] -> ()
    | Relu :: rest -> check prev rest
    | Op op :: rest ->
        (match prev with
        | Some shape when op_input_shape op <> shape ->
            invalid_arg
              (Printf.sprintf
                 "Pipeline %s: stage %s expects input [%s] but gets [%s]" name
                 op.Operator.name
                 (String.concat ";" (List.map string_of_int (op_input_shape op)))
                 (String.concat ";" (List.map string_of_int shape)))
        | Some _ | None -> ());
        check (Some (op_output_shape op)) rest
  in
  check None stages;
  if not (List.exists (function Op _ -> true | Relu -> false) stages) then
    invalid_arg "Pipeline: no tensor stages";
  { name; stages }

let first_op t =
  let rec go = function
    | Op op :: _ -> op
    | Relu :: rest -> go rest
    | [] -> assert false
  in
  go t.stages

let last_op t =
  List.fold_left
    (fun acc stage -> match stage with Op op -> Some op | Relu -> acc)
    None t.stages
  |> Option.get

let input_shape t = op_input_shape (first_op t)
let output_shape t = op_output_shape (last_op t)

let random_weights rng t =
  List.map
    (function
      | Relu -> []
      | Op op ->
          List.filteri (fun i _ -> i > 0) op.Operator.inputs
          |> List.map (fun (acc : Operator.access) ->
                 Nd.random_of_decl rng acc.Operator.tensor))
    t.stages

let relu nd =
  let out = Nd.copy nd in
  for i = 0 to Nd.num_elems out - 1 do
    Nd.set_flat out i (Float.max 0. (Nd.get_flat out i))
  done;
  out

let run_with exec t ~input ~weights =
  List.fold_left2
    (fun data stage ws ->
      match stage with
      | Relu -> relu data
      | Op op -> exec op (data :: ws))
    input t.stages weights

let run_reference t ~input ~weights =
  run_with (fun op inputs -> Amos_tensor.Reference.run op ~inputs) t ~input
    ~weights

let run_compiled accel t ~input ~weights =
  (* always prefer the spatial units when a valid mapping exists: the
     point of this path is to exercise the lowered kernels end-to-end *)
  let exec op inputs =
    match Explore.tune_op ~population:6 ~generations:2 ~accel op with
    | Some result when result.Explore.best.Explore.measured < infinity ->
        let c = result.Explore.best.Explore.candidate in
        let kernel =
          Codegen.lower accel c.Explore.mapping c.Explore.schedule
        in
        Spatial_sim.Machine.run accel.Accelerator.config kernel ~inputs
          ~out_shape:(op_output_shape op)
    | Some _ | None -> Spatial_sim.Scalar_backend.run op ~inputs
  in
  run_with exec t ~input ~weights

let tensor_stages t =
  List.mapi (fun i stage -> (i, stage)) t.stages
  |> List.filter_map (function
       | i, Op op -> Some (i, op)
       | _, Relu -> None)

let run_with_plans accel t ~plan_for ~input ~weights =
  let idx = ref (-1) in
  let exec op inputs =
    match plan_for !idx op with
    | Some (mapping, schedule) ->
        let kernel = Codegen.lower accel mapping schedule in
        Spatial_sim.Machine.run accel.Accelerator.config kernel ~inputs
          ~out_shape:(op_output_shape op)
    | None -> Spatial_sim.Scalar_backend.run op ~inputs
  in
  List.fold_left2
    (fun data stage ws ->
      incr idx;
      match stage with Relu -> relu data | Op op -> exec op (data :: ws))
    input t.stages weights

let mini_cnn ?(channels = 4) () =
  let c = channels in
  (* spatial sizes chosen so outputs chain into the next 3x3 window *)
  let conv1 = Amos_workloads.Ops.conv2d ~name:"conv1" ~n:2 ~c:3 ~k:c ~p:8 ~q:8 ~r:3 ~s:3 () in
  let conv2 = Amos_workloads.Ops.conv2d ~name:"conv2" ~n:2 ~c ~k:c ~p:6 ~q:6 ~r:3 ~s:3 () in
  let dw = Amos_workloads.Ops.depthwise_conv2d ~name:"dw" ~n:2 ~c ~p:4 ~q:4 ~r:3 ~s:3 () in
  let pw = Amos_workloads.Ops.conv2d ~name:"pw" ~n:2 ~c ~k:(2 * c) ~p:4 ~q:4 ~r:1 ~s:1 () in
  create ~name:"mini-cnn" [ Op conv1; Relu; Op conv2; Relu; Op dw; Op pw ]
