open Amos_ir
module Networks = Amos_workloads.Networks

type verdict =
  | Tensor_core
  | Fallback of string

let column (op : Operator.t) it =
  let accs = op.Operator.output :: op.Operator.inputs in
  List.map (fun acc -> Operator.uses_iter acc it) accs

let classify (op : Operator.t) =
  match (op.Operator.arith, op.Operator.inputs) with
  | (Operator.Add_acc | Operator.Sq_diff_acc | Operator.Max_acc), _ ->
      Fallback "not a multiply-accumulate pattern"
  | Operator.Mul_add, [ _; _ ] ->
      let shared_everywhere =
        List.filter
          (fun it -> column op it = [ true; true; true ])
          op.Operator.iters
      in
      if shared_everywhere <> [] then
        Fallback
          (Printf.sprintf "iteration %s shared by all operands (grouped/depthwise/per-sample)"
             (List.hd shared_everywhere).Iter.name)
      else if
        List.exists
          (fun (acc : Operator.access) ->
            List.exists
              (fun a ->
                List.exists (fun it -> abs (Affine.coeff a it) >= 2)
                  (Affine.iters a))
              acc.Operator.index)
          op.Operator.inputs
      then Fallback "strided or dilated access"
      else if List.length op.Operator.iters > 9 then
        Fallback "rank too high for the GEMM template"
      else
        (* the GEMM pattern needs full tiles on every matched dimension *)
        let m_extent =
          List.fold_left
            (fun acc it ->
              if column op it = [ true; true; false ] then
                acc * it.Iter.extent
              else acc)
            1 op.Operator.iters
        in
        let n_extent =
          List.fold_left
            (fun acc it ->
              if column op it = [ true; false; true ] then
                acc * it.Iter.extent
              else acc)
            1 op.Operator.iters
        in
        if m_extent < 16 then Fallback "matrix-vector shape (m < 16)"
        else if n_extent < 16 then Fallback "matrix-vector shape (n < 16)"
        else Tensor_core
  | Operator.Mul_add, _ -> Fallback "unsupported operand arity"

let mapped_count (net : Networks.t) =
  List.fold_left
    (fun acc (layer, mult) ->
      match layer with
      | Networks.Tensor_op op when classify op = Tensor_core -> acc + mult
      | Networks.Tensor_op _ | Networks.Elementwise _ -> acc)
    0 net.Networks.layers
