(* [Plan_io.load] as it stood before the loader split into [parse] and
   [bind], kept verbatim as the oracle: [props.plan_io] asserts that the
   production loader returns [None] where this one does, and otherwise
   the plan [Plan_io.save] renders to the same text.  It binds software
   iterations by name and knows no [iters] line. *)

open Amos
open Amos_ir

let split_ws line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let load accel (op : Operator.t) text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let field key =
    List.find_map
      (fun l ->
        match split_ws l with
        | k :: rest when k = key -> Some rest
        | _ -> None)
      lines
  in
  let ( let* ) = Option.bind in
  let* intr_name = field "intrinsic" in
  let* intr =
    List.find_opt
      (fun (i : Intrinsic.t) -> [ i.Intrinsic.name ] = intr_name
                                || String.concat " " intr_name = i.Intrinsic.name)
      accel.Accelerator.intrinsics
  in
  let* perm_s = field "src_perm" in
  let* src_perm =
    match perm_s with
    | [ one ] -> (
        try
          Some
            (Array.of_list
               (List.map int_of_string (String.split_on_char ',' one)))
        with Failure _ -> None)
    | _ -> None
  in
  let* assigns = field "assign" in
  let* view = Mac_view.of_operator op in
  let intr_iter_by_name name =
    List.find_opt
      (fun (k : Iter.t) -> k.Iter.name = name)
      intr.Intrinsic.compute.Compute_abs.iters
  in
  let parse_assign s =
    match String.split_on_char '=' s with
    | [ sw; k ] -> Some (sw, k)
    | _ -> None
  in
  let* pairs =
    List.fold_left
      (fun acc s ->
        match (acc, parse_assign s) with
        | Some l, Some p -> Some (p :: l)
        | _, _ -> None)
      (Some []) assigns
  in
  let assign =
    Array.of_list
      (List.map
         (fun (it : Iter.t) ->
           match List.assoc_opt it.Iter.name pairs with
           | Some kname -> intr_iter_by_name kname
           | None -> None)
         op.Operator.iters)
  in
  (* every named assignment must have resolved *)
  let resolved =
    List.for_all
      (fun (sw, k) ->
        List.exists (fun (it : Iter.t) -> it.Iter.name = sw) op.Operator.iters
        && intr_iter_by_name k <> None)
      pairs
  in
  if not resolved then None
  else
    let* matching =
      match Matching.create ~view ~intr ~src_perm ~assign with
      | m -> if Matching.validate m then Some m else None
      | exception Invalid_argument _ -> None
    in
    let mapping = Mapping.make matching in
    let dims = Schedule.dims mapping in
    let* splits =
      List.fold_left
        (fun acc (d : Schedule.dim) ->
          let* acc = acc in
          let* parts =
            List.find_map
              (fun l ->
                match split_ws l with
                | [ "split"; name; b'; w; s ] when name = d.Schedule.name -> (
                    try
                      Some
                        {
                          Schedule.block = int_of_string b';
                          subcore = int_of_string w;
                          serial = int_of_string s;
                        }
                    with Failure _ -> None)
                | _ -> None)
              lines
          in
          Some (parts :: acc))
        (Some []) dims
    in
    let int_field key =
      let* v = field key in
      match v with
      | [ one ] -> int_of_string_opt one
      | _ -> None
    in
    let* stage_depth = int_field "stage" in
    let* unroll = int_field "unroll" in
    let* vectorize =
      let* v = field "vectorize" in
      match v with
      | [ one ] -> bool_of_string_opt one
      | _ -> None
    in
    let sched =
      {
        Schedule.splits = Array.of_list (List.rev splits);
        stage_depth;
        unroll;
        vectorize;
      }
    in
    if Schedule.validate mapping sched then Some (mapping, sched) else None
