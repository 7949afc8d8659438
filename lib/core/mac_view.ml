open Amos_ir

type source =
  | Tensor of { input_idx : int; acc : Operator.access }
  | Ones of Iter.t list
  | Diff_sq of {
      a_idx : int;
      a : Operator.access;
      b_idx : int;
      b : Operator.access;
    }

type t = {
  op : Operator.t;
  srcs : source list;
}

let of_operator (op : Operator.t) =
  match (op.Operator.arith, op.Operator.inputs) with
  | Operator.Mul_add, [ a; b ] ->
      Some
        {
          op;
          srcs =
            [
              Tensor { input_idx = 0; acc = a };
              Tensor { input_idx = 1; acc = b };
            ];
        }
  | Operator.Add_acc, [ a ] ->
      Some
        {
          op;
          srcs =
            [
              Tensor { input_idx = 0; acc = a };
              Ones (Operator.reduction_iters op);
            ];
        }
  | Operator.Sq_diff_acc, [ a; b ] ->
      Some
        {
          op;
          srcs =
            [
              Diff_sq { a_idx = 0; a; b_idx = 1; b };
              Ones (Operator.reduction_iters op);
            ];
        }
  | Operator.Max_acc, _ -> None
  | (Operator.Mul_add | Operator.Add_acc | Operator.Sq_diff_acc), _ ->
      (* Operator.create enforces arity; unreachable for well-formed ops *)
      None

let source_uses src it =
  match src with
  | Tensor { acc; _ } -> Operator.uses_iter acc it
  | Ones iters -> List.exists (Iter.equal it) iters
  | Diff_sq { a; b; _ } ->
      Operator.uses_iter a it || Operator.uses_iter b it

let rows t ~src_perm =
  let srcs = Array.of_list t.srcs in
  `Out :: List.map (fun i -> `Src srcs.(i)) (Array.to_list src_perm)

let row_uses t row it =
  match row with
  | `Out -> Operator.uses_iter t.op.Operator.output it
  | `Src s -> source_uses s it

let access_matrix t ~src_perm =
  let rows_l = rows t ~src_perm in
  let iters = t.op.Operator.iters in
  let m =
    Bin_matrix.create ~rows:(List.length rows_l) ~cols:(List.length iters)
  in
  List.iteri
    (fun r row ->
      List.iteri
        (fun c it -> if row_uses t row it then Bin_matrix.set m r c true)
        iters)
    rows_l;
  m

let column t ~src_perm it =
  Array.of_list (List.map (fun row -> row_uses t row it) (rows t ~src_perm))

let alone_in_access (acc : Operator.access) it =
  List.exists
    (fun a -> Affine.coeff a it <> 0 && List.length (Affine.iters a) = 1)
    acc.Operator.index

let independent t it =
  List.for_all
    (fun src ->
      (not (source_uses src it))
      ||
      match src with
      | Tensor { acc; _ } -> alone_in_access acc it
      | Ones _ -> true
      | Diff_sq { a; b; _ } -> alone_in_access a it || alone_in_access b it)
    t.srcs
