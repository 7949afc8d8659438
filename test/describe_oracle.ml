(* [Matching.describe] as it stood before the one-buffer renderer, kept
   verbatim as the oracle: the test suites assert that every description
   the production renderer produces is byte-identical to this one.  The
   text is hashed into every mapping's schedule-search stream
   ([Explore.mapping_seed]), so any drift changes every tuned plan. *)

open Amos
open Amos_ir

let describe t =
  let used = Matching.used_intrinsic_iters t in
  let lhs = String.concat ", " (List.map (fun k -> k.Iter.name) used) in
  let fused_text k =
    (* extent-1 iterations contribute nothing to the fused index; keep the
       description readable by omitting them (unless everything is 1) *)
    let sws = Matching.sw_iters_of t k in
    let sws =
      match List.filter (fun (it : Iter.t) -> it.Iter.extent > 1) sws with
      | [] -> (match sws with [] -> [] | first :: _ -> [ first ])
      | nontrivial -> nontrivial
    in
    (* mixed-radix fusion: first iter is slowest *)
    let rec strides = function
      | [] -> []
      | [ _ ] -> [ 1 ]
      | _ :: rest ->
          let hd_stride =
            List.fold_left
              (fun acc (it : Iter.t) -> acc * it.Iter.extent)
              1 rest
          in
          hd_stride :: strides rest
    in
    let ss = strides sws in
    let terms =
      List.map2
        (fun (it : Iter.t) stride ->
          if stride = 1 then it.Iter.name
          else Printf.sprintf "%s*%d" it.Iter.name stride)
        sws ss
    in
    let body = String.concat " + " terms in
    let body = if List.length terms > 1 then "(" ^ body ^ ")" else body in
    Printf.sprintf "%s mod %d" body k.Iter.extent
  in
  Printf.sprintf "[%s] <- [%s]" lhs
    (String.concat ", " (List.map fused_text used))
