let of_operator (op : Operator.t) =
  let accesses = op.Operator.output :: op.Operator.inputs in
  let iters = op.Operator.iters in
  let m =
    Bin_matrix.create ~rows:(List.length accesses) ~cols:(List.length iters)
  in
  List.iteri
    (fun r acc ->
      List.iteri
        (fun c it -> if Operator.uses_iter acc it then Bin_matrix.set m r c true)
        iters)
    accesses;
  m

let restrict_columns m ~keep =
  if Array.length keep <> Bin_matrix.cols m then
    invalid_arg "Access_matrix.restrict_columns: flag length mismatch";
  let kept = ref [] in
  Array.iteri (fun j k -> if k then kept := j :: !kept) keep;
  let kept = List.rev !kept in
  let out = Bin_matrix.create ~rows:(Bin_matrix.rows m) ~cols:(List.length kept) in
  List.iteri
    (fun j' j ->
      for i = 0 to Bin_matrix.rows m - 1 do
        Bin_matrix.set out i j' (Bin_matrix.get m i j)
      done)
    kept;
  out
