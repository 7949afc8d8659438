open Amos_ir

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) l in
          List.map (fun p -> x :: p) (permutations rest))
        l

(* Does relabelling intrinsic iterations by [sigma] (a pairing of iters)
   turn the operand structure permuted by [perm] back into the original?
   If so the two source correspondences explore mirror-identical mapping
   spaces and only one is kept. *)
let is_automorphism (intr : Intrinsic.t) perm sigma =
  let slots_set (o : Compute_abs.operand) =
    List.sort Iter.compare o.Compute_abs.slots
  in
  let apply it =
    match List.find_opt (fun (a, _) -> Iter.equal a it) sigma with
    | Some (_, b) -> b
    | None -> it
  in
  let relabel (o : Compute_abs.operand) =
    List.sort Iter.compare (List.map apply o.Compute_abs.slots)
  in
  let compute = intr.Intrinsic.compute in
  let srcs = Array.of_list compute.Compute_abs.srcs in
  relabel compute.Compute_abs.dst = slots_set compute.Compute_abs.dst
  && Array.for_all
       (fun b -> b)
       (Array.mapi
          (fun m pm -> relabel srcs.(pm) = slots_set srcs.(m))
          perm)

let exists_automorphism intr perm =
  let iters = intr.Intrinsic.compute.Compute_abs.iters in
  let valid_pairings =
    (* bijections preserving extent and kind *)
    List.filter_map
      (fun image ->
        let sigma = List.combine iters image in
        if
          List.for_all
            (fun ((a : Iter.t), (b : Iter.t)) ->
              a.Iter.extent = b.Iter.extent && a.Iter.kind = b.Iter.kind)
            sigma
        then Some sigma
        else None)
      (permutations iters)
  in
  List.exists (is_automorphism intr perm) valid_pairings

let src_perms view intr =
  let n_view = List.length view.Mac_view.srcs in
  let n_intr = Intrinsic.num_srcs intr in
  if n_view <> n_intr then []
  else
    let all =
      List.map Array.of_list (permutations (List.init n_view (fun i -> i)))
    in
    (* keep a permutation only if no earlier kept permutation is related to
       it by an automorphism: p ~ q iff q o p^-1 is an automorphism *)
    let compose_inv p q =
      (* r.(m) = index such that applying q after undoing p equals r *)
      let inv = Array.make (Array.length p) 0 in
      Array.iteri (fun i pi -> inv.(pi) <- i) p;
      Array.map (fun qi -> inv.(qi)) q
    in
    List.fold_left
      (fun kept p ->
        if
          List.exists
            (fun q -> exists_automorphism intr (compose_inv q p))
            kept
        then kept
        else kept @ [ p ])
      [] all

let candidates view intr ~src_perm =
  let compute = intr.Intrinsic.compute in
  let z_col k =
    Array.of_list
      (List.map
         (fun o -> Compute_abs.uses o k)
         (compute.Compute_abs.dst :: compute.Compute_abs.srcs))
  in
  List.map
    (fun s ->
      let col = Mac_view.column view ~src_perm s in
      let ks =
        List.filter
          (fun k ->
            z_col k = col
            && Iter.is_reduction k = Iter.is_reduction s)
          compute.Compute_abs.iters
      in
      (s, ks))
    view.Mac_view.op.Operator.iters

let generate ?(filter = true) view intr =
  let results = ref [] in
  let ws = Matching.workspace () in
  List.iter
    (fun src_perm ->
      let cands = candidates view intr ~src_perm in
      let cands_arr = Array.of_list cands in
      let n = Array.length cands_arr in
      let must_use =
        List.filter
          (fun k -> List.exists (fun (_, ks) -> List.exists (Iter.equal k) ks) cands)
          intr.Intrinsic.compute.Compute_abs.iters
      in
      let assign = Array.make n None in
      let rec go i =
        if i = n then begin
          let used k =
            Array.exists
              (function Some k' -> Iter.equal k k' | None -> false)
              assign
          in
          if List.for_all used must_use then begin
            let m =
              Matching.create ~view ~intr ~src_perm ~assign:(Array.copy assign)
            in
            if
              Matching.validate_ws ws m
              && ((not filter) || Matching.feasible m)
            then results := m :: !results
          end
        end
        else begin
          let _, ks = cands_arr.(i) in
          assign.(i) <- None;
          go (i + 1);
          List.iter
            (fun k ->
              assign.(i) <- Some k;
              go (i + 1))
            ks;
          assign.(i) <- None
        end
      in
      go 0)
    (src_perms view intr);
  List.rev !results

let generate_op ?filter op intr =
  match Mac_view.of_operator op with
  | None -> []
  | Some view -> generate ?filter view intr

let count ?filter op intr = List.length (generate_op ?filter op intr)
