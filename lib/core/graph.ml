open Amos_ir
module Nd = Amos_tensor.Nd

type node_id = int

type node =
  | Input of int list
  | Op of Operator.t * node_id
  | Add of node_id * node_id
  | Relu of node_id
  | Concat of int * node_id * node_id
  | Reshape of int list * node_id
  | Permute of int list * node_id

type t = {
  nodes : node array;  (* index = node_id, topologically ordered *)
  output : node_id;
}

let shape_of_node nodes id =
  let rec go id =
    match nodes.(id) with
    | Input shape -> shape
    | Op (op, _) -> op.Operator.output.Operator.tensor.Tensor_decl.shape
    | Add (a, _) -> go a
    | Relu a -> go a
    | Concat (axis, a, b) ->
        List.mapi
          (fun i d -> if i = axis then d + List.nth (go b) i else d)
          (go a)
    | Reshape (shape, _) -> shape
    | Permute (perm, a) ->
        let sa = Array.of_list (go a) in
        List.map (fun i -> sa.(i)) perm
  in
  go id

module Builder = struct
  type graph = t

  type b = {
    mutable acc : node list;  (* reversed *)
    mutable count : int;
  }

  let create () = { acc = []; count = 0 }

  let push b node =
    b.acc <- node :: b.acc;
    b.count <- b.count + 1;
    b.count - 1

  let nodes_so_far b = Array.of_list (List.rev b.acc)

  let shape b id = shape_of_node (nodes_so_far b) id

  let check_id b id =
    if id < 0 || id >= b.count then invalid_arg "Graph: unknown node id"

  let input b sh =
    if sh = [] then invalid_arg "Graph.input: empty shape";
    push b (Input sh)

  let op b operator src =
    check_id b src;
    let expected =
      match operator.Operator.inputs with
      | first :: _ -> first.Operator.tensor.Tensor_decl.shape
      | [] -> invalid_arg "Graph.op: operator without inputs"
    in
    if shape b src <> expected then
      invalid_arg
        (Printf.sprintf "Graph.op: %s expects input [%s], got [%s]"
           operator.Operator.name
           (String.concat ";" (List.map string_of_int expected))
           (String.concat ";" (List.map string_of_int (shape b src))));
    push b (Op (operator, src))

  let add b x y =
    check_id b x;
    check_id b y;
    if shape b x <> shape b y then invalid_arg "Graph.add: shape mismatch";
    push b (Add (x, y))

  let relu b x =
    check_id b x;
    push b (Relu x)

  let concat b ~axis x y =
    check_id b x;
    check_id b y;
    let sx = shape b x and sy = shape b y in
    if List.length sx <> List.length sy then
      invalid_arg "Graph.concat: rank mismatch";
    if axis < 0 || axis >= List.length sx then
      invalid_arg "Graph.concat: bad axis";
    List.iteri
      (fun i (dx, dy) ->
        if i <> axis && dx <> dy then
          invalid_arg "Graph.concat: non-axis dims must match")
      (List.combine sx sy);
    push b (Concat (axis, x, y))

  let reshape b new_shape src =
    check_id b src;
    if new_shape = [] || List.exists (fun d -> d <= 0) new_shape then
      invalid_arg "Graph.reshape: bad shape";
    let elems l = List.fold_left ( * ) 1 l in
    if elems new_shape <> elems (shape b src) then
      invalid_arg "Graph.reshape: element count mismatch";
    push b (Reshape (new_shape, src))

  let permute b perm src =
    check_id b src;
    let rank = List.length (shape b src) in
    if List.sort Int.compare perm <> List.init rank (fun i -> i) then
      invalid_arg "Graph.permute: not a permutation of axes";
    push b (Permute (perm, src))

  let finish b ~output =
    check_id b output;
    { nodes = nodes_so_far b; output }
end

let shape_of t id = shape_of_node t.nodes id
let output_shape t = shape_of t t.output

let input_shape t =
  let found = ref None in
  Array.iter
    (function
      | Input sh -> if !found = None then found := Some sh
      | Op _ | Add _ | Relu _ | Concat _ | Reshape _ | Permute _ -> ())
    t.nodes;
  match !found with
  | Some sh -> sh
  | None -> invalid_arg "Graph: no input node"

let tensor_ops t =
  Array.to_list t.nodes
  |> List.mapi (fun id node -> (id, node))
  |> List.filter_map (function
       | id, Op (op, _) -> Some (id, op)
       | _, (Input _ | Add _ | Relu _ | Concat _ | Reshape _ | Permute _) ->
           None)

let random_weights rng t =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun id node ->
            match node with
            | Op (op, _) ->
                let ws =
                  List.filteri (fun i _ -> i > 0) op.Operator.inputs
                  |> List.map (fun (acc : Operator.access) ->
                         Nd.random_of_decl rng acc.Operator.tensor)
                in
                [ (id, ws) ]
            | Input _ | Add _ | Relu _ | Concat _ | Reshape _ | Permute _ -> [])
          t.nodes))

let concat_nd axis a b =
  let sa = Nd.shape a and sb = Nd.shape b in
  let out_shape =
    List.mapi (fun i d -> if i = axis then d + List.nth sb i else d) sa
  in
  let out = Nd.create out_shape in
  let copy src offset =
    let sh = Array.of_list (Nd.shape src) in
    let idx = Array.make (Array.length sh) 0 in
    let rec go i =
      if i = Array.length sh then begin
        let dst_idx = Array.copy idx in
        dst_idx.(axis) <- dst_idx.(axis) + offset;
        Nd.set out dst_idx (Nd.get src idx)
      end
      else
        for v = 0 to sh.(i) - 1 do
          idx.(i) <- v;
          go (i + 1)
        done
    in
    go 0
  in
  copy a 0;
  copy b (List.nth sa axis);
  out

let run_with exec t ~input ~weights =
  let values = Array.make (Array.length t.nodes) None in
  let get id =
    match values.(id) with
    | Some v -> v
    | None -> invalid_arg "Graph: node evaluated out of order"
  in
  Array.iteri
    (fun id node ->
      let v =
        match node with
        | Input _ -> input
        | Op (op, src) ->
            let ws = try List.assoc id weights with Not_found -> [] in
            exec id op (get src :: ws)
        | Add (a, b) -> Nd.map2 ( +. ) (get a) (get b)
        | Relu a ->
            let out = Nd.copy (get a) in
            for i = 0 to Nd.num_elems out - 1 do
              Nd.set_flat out i (Float.max 0. (Nd.get_flat out i))
            done;
            out
        | Concat (axis, a, b) -> concat_nd axis (get a) (get b)
        | Reshape (shape, a) ->
            let src = get a in
            let out = Nd.create shape in
            for i = 0 to Nd.num_elems src - 1 do
              Nd.set_flat out i (Nd.get_flat src i)
            done;
            out
        | Permute (perm, a) ->
            let src = get a in
            let sa = Array.of_list (Nd.shape src) in
            let perm_a = Array.of_list perm in
            let out = Nd.create (List.map (fun i -> sa.(i)) perm) in
            let idx = Array.make (Array.length sa) 0 in
            let rec go i =
              if i = Array.length sa then
                Nd.set out (Array.map (fun p -> idx.(p)) perm_a) (Nd.get src idx)
              else
                for v = 0 to sa.(i) - 1 do
                  idx.(i) <- v;
                  go (i + 1)
                done
            in
            go 0;
            out
      in
      values.(id) <- Some v)
    t.nodes;
  get t.output

let run_reference t ~input ~weights =
  run_with (fun _ op inputs -> Amos_tensor.Reference.run op ~inputs) t ~input
    ~weights

let run_with_plans accel t ~plan_for ~input ~weights =
  let exec id op inputs =
    match plan_for id op with
    | Some (mapping, schedule) ->
        Spatial_sim.Machine.run accel.Accelerator.config
          (Codegen.lower accel mapping schedule)
          ~inputs ~out_shape:op.Operator.output.Operator.tensor.Tensor_decl.shape
    | None -> Spatial_sim.Scalar_backend.run op ~inputs
  in
  run_with exec t ~input ~weights

(* always prefer the spatial units when a valid mapping exists: the
   point of this path is to exercise the lowered kernels end-to-end *)
let run_compiled accel t ~input ~weights =
  run_with_plans accel t ~input ~weights ~plan_for:(fun _ op ->
      match Explore.tune_op ~population:6 ~generations:2 ~accel op with
      | Some { Explore.best; _ } when best.Explore.measured < infinity ->
          let c = best.Explore.candidate in
          Some (c.Explore.mapping, c.Explore.schedule)
      | Some _ | None -> None)

let mini_cnn ?(channels = 4) () =
  let c = channels in
  (* spatial sizes chosen so outputs chain into the next 3x3 window *)
  let conv1 = Amos_workloads.Ops.conv2d ~name:"conv1" ~n:2 ~c:3 ~k:c ~p:8 ~q:8 ~r:3 ~s:3 () in
  let conv2 = Amos_workloads.Ops.conv2d ~name:"conv2" ~n:2 ~c ~k:c ~p:6 ~q:6 ~r:3 ~s:3 () in
  let dw = Amos_workloads.Ops.depthwise_conv2d ~name:"dw" ~n:2 ~c ~p:4 ~q:4 ~r:3 ~s:3 () in
  let pw = Amos_workloads.Ops.conv2d ~name:"pw" ~n:2 ~c ~k:(2 * c) ~p:4 ~q:4 ~r:1 ~s:1 () in
  let b = Builder.create () in
  let x = Builder.input b [ 2; 3; 10; 10 ] in
  let h1 = Builder.relu b (Builder.op b conv1 x) in
  let h2 = Builder.relu b (Builder.op b conv2 h1) in
  let out = Builder.op b pw (Builder.op b dw h2) in
  Builder.finish b ~output:out

let shufflenet_unit ?(groups = 2) ?(channels_per_group = 2) ?(hw = 4) () =
  let g = groups and cg = channels_per_group in
  let c = g * cg in
  let n = 2 in
  let b = Builder.create () in
  (* the depthwise 3x3 consumes a (hw+2)x(hw+2) window; start from the
     padded size so the residual shapes line up after the window shrink *)
  let big = hw + 2 in
  let x = Builder.input b [ n; c; big; big ] in
  let g1 =
    Builder.op b
      (Amos_workloads.Ops.grouped_conv2d ~name:"su-g1x1a" ~groups:g ~n ~c:cg
         ~k:cg ~p:big ~q:big ~r:1 ~s:1 ())
      (Builder.reshape b [ n; g; cg; big; big ] x)
  in
  let r1 = Builder.relu b g1 in
  (* channel shuffle: [n; g; cg; h; w] -> transpose (g, cg) -> flatten *)
  let shuffled = Builder.permute b [ 0; 2; 1; 3; 4 ] r1 in
  let flat = Builder.reshape b [ n; c; big; big ] shuffled in
  let dw =
    Builder.op b
      (Amos_workloads.Ops.depthwise_conv2d ~name:"su-dw3x3" ~n ~c ~p:hw ~q:hw
         ~r:3 ~s:3 ())
      flat
  in
  let g2 =
    Builder.op b
      (Amos_workloads.Ops.grouped_conv2d ~name:"su-g1x1b" ~groups:g ~n ~c:cg
         ~k:cg ~p:hw ~q:hw ~r:1 ~s:1 ())
      (Builder.reshape b [ n; g; cg; hw; hw ] dw)
  in
  let g2_flat = Builder.reshape b [ n; c; hw; hw ] g2 in
  (* residual branch: a 3x3 projection conv shrinks the spatial size the
     same way the depthwise path does, so the shapes line up for the add *)
  let proj =
    Builder.op b
      (Amos_workloads.Ops.conv2d ~name:"su-proj" ~n ~c ~k:c ~p:hw ~q:hw ~r:3
         ~s:3 ())
      flat
  in
  let summed = Builder.add b g2_flat (Builder.relu b proj) in
  let out = Builder.relu b summed in
  Builder.finish b ~output:out

let residual_block ?(channels = 4) ?(hw = 5) () =
  let c = channels in
  let b = Builder.create () in
  let x = Builder.input b [ 2; c; hw; hw ] in
  let conv name = Amos_workloads.Ops.conv2d ~name ~n:2 ~c ~k:c ~p:hw ~q:hw ~r:1 ~s:1 () in
  let h1 = Builder.op b (conv "res-conv1") x in
  let h2 = Builder.relu b h1 in
  let h3 = Builder.op b (conv "res-conv2") h2 in
  let h4 = Builder.add b h3 x in
  let out = Builder.relu b h4 in
  Builder.finish b ~output:out

let branch_block ?(channels = 4) ?(hw = 5) () =
  let c = channels in
  let b = Builder.create () in
  let x = Builder.input b [ 2; c; hw; hw ] in
  let conv name k =
    Amos_workloads.Ops.conv2d ~name ~n:2 ~c ~k ~p:hw ~q:hw ~r:1 ~s:1 ()
  in
  let left = Builder.op b (conv "branch-a" c) x in
  let right = Builder.op b (conv "branch-b" (2 * c)) x in
  let merged = Builder.concat b ~axis:1 left right in
  let out = Builder.relu b merged in
  Builder.finish b ~output:out
