type access = {
  tensor : Tensor_decl.t;
  index : Affine.t list;
}

type arith =
  | Mul_add
  | Add_acc
  | Max_acc
  | Sq_diff_acc

type t = {
  name : string;
  iters : Iter.t list;
  output : access;
  inputs : access list;
  arith : arith;
  preds : Predicate.t list;
  init : float;
  post_scale : float;
}

let access tensor index =
  if List.length index <> List.length tensor.Tensor_decl.shape then
    invalid_arg
      (Printf.sprintf "Operator.access: %s has rank %d but %d indices given"
         tensor.Tensor_decl.name (List.length tensor.Tensor_decl.shape)
         (List.length index));
  { tensor; index }

let arity = function Mul_add | Sq_diff_acc -> 2 | Add_acc | Max_acc -> 1

let uses_iter acc it =
  List.exists (fun a -> Affine.coeff a it <> 0) acc.index

let check_bounds name acc =
  List.iter2
    (fun a dim ->
      if Affine.min_value a < 0 then
        invalid_arg
          (Format.asprintf "Operator %s: index %a of %s can be negative" name
             Affine.pp a acc.tensor.Tensor_decl.name);
      if Affine.max_value a >= dim then
        invalid_arg
          (Format.asprintf
             "Operator %s: index %a of %s can reach %d >= dim %d" name
             Affine.pp a acc.tensor.Tensor_decl.name (Affine.max_value a) dim))
    acc.index acc.tensor.Tensor_decl.shape

let create ?(preds = []) ?(init = 0.) ?(post_scale = 1.) ~name ~iters ~output
    ~inputs ~arith () =
  if List.length inputs <> arity arith then
    invalid_arg (Printf.sprintf "Operator %s: wrong input arity" name);
  check_bounds name output;
  List.iter (check_bounds name) inputs;
  List.iter
    (fun a ->
      List.iter
        (fun it ->
          if Iter.is_reduction it then
            invalid_arg
              (Printf.sprintf "Operator %s: reduction iter %s indexes the output"
                 name it.Iter.name))
        (Affine.iters a))
    output.index;
  List.iter
    (fun it ->
      if (not (Iter.is_reduction it)) && not (uses_iter output it) then
        invalid_arg
          (Printf.sprintf "Operator %s: spatial iter %s absent from output"
             name it.Iter.name))
    iters;
  { name; iters; output; inputs; arith; preds; init; post_scale }

let reduction_iters t = List.filter Iter.is_reduction t.iters

let domain_size t =
  List.fold_left (fun acc (it : Iter.t) -> acc * it.Iter.extent) 1 t.iters

let flops t =
  let per_point =
    match t.arith with Mul_add -> 2. | Add_acc | Max_acc -> 1. | Sq_diff_acc -> 3.
  in
  per_point *. float_of_int (domain_size t)

let tensors t = t.output.tensor :: List.map (fun a -> a.tensor) t.inputs

let independent_in_sources t it =
  let alone_in acc =
    List.exists
      (fun a -> Affine.coeff a it <> 0 && List.length (Affine.iters a) = 1)
      acc.index
  in
  List.for_all
    (fun acc -> (not (uses_iter acc it)) || alone_in acc)
    t.inputs

let pp_access ppf acc =
  Format.fprintf ppf "%s[%s]" acc.tensor.Tensor_decl.name
    (String.concat ", " (List.map (Format.asprintf "%a" Affine.pp) acc.index))

let pp ppf t =
  let op_str =
    match t.arith with
    | Mul_add -> " * "
    | Add_acc | Max_acc -> ""
    | Sq_diff_acc -> " -sq- "
  in
  let acc_str = match t.arith with Max_acc -> "max=" | _ -> "+=" in
  Format.fprintf ppf "@[<v>%s: for {%s}:@;<1 2>%a %s %s@]" t.name
    (String.concat ", "
       (List.map (Format.asprintf "%a" Iter.pp) t.iters))
    pp_access t.output acc_str
    (String.concat op_str
       (List.map (Format.asprintf "%a" pp_access) t.inputs));
  if t.preds <> [] then
    Format.fprintf ppf "@;<1 2>where %s"
      (String.concat " and "
         (List.map (Format.asprintf "%a" Predicate.pp) t.preds))
