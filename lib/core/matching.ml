open Amos_ir

type t = {
  view : Mac_view.t;
  intr : Intrinsic.t;
  src_perm : int array;
  assign : Iter.t option array;
}

let create ~view ~intr ~src_perm ~assign =
  let n_iters = List.length view.Mac_view.op.Operator.iters in
  if Array.length assign <> n_iters then
    invalid_arg "Matching.create: assignment length mismatch";
  if Array.length src_perm <> List.length view.Mac_view.srcs then
    invalid_arg "Matching.create: src_perm length mismatch";
  Array.iter
    (function
      | None -> ()
      | Some k ->
          if
            not
              (List.exists (Iter.equal k)
                 intr.Intrinsic.compute.Compute_abs.iters)
          then
            invalid_arg
              (Printf.sprintf "Matching.create: %s is not an intrinsic iter"
                 k.Iter.name))
    assign;
  { view; intr; src_perm; assign }

let sw_iters (t : t) = t.view.Mac_view.op.Operator.iters

let mapped t =
  let res = ref [] in
  List.iteri
    (fun i s ->
      match t.assign.(i) with Some k -> res := (s, k) :: !res | None -> ())
    (sw_iters t);
  List.rev !res

let outer t =
  let res = ref [] in
  List.iteri
    (fun i s -> if t.assign.(i) = None then res := s :: !res)
    (sw_iters t);
  List.rev !res

let sw_iters_of t k =
  let rec go i = function
    | [] -> []
    | s :: rest -> (
        match t.assign.(i) with
        | Some k' when Iter.equal k k' -> s :: go (i + 1) rest
        | Some _ | None -> go (i + 1) rest)
  in
  go 0 (sw_iters t)

let used_intrinsic_iters t =
  List.filter
    (fun k -> sw_iters_of t k <> [])
    t.intr.Intrinsic.compute.Compute_abs.iters

(* Fill pre-cleared matrices of the right shapes with the X / Y / Z
   contents; shared by the allocating [matrices] and the scratch-backed
   [validate_ws]. *)
let fill_matrices t ~m ~used ~x ~y ~z =
  (* X: rows = operands (dst :: permuted srcs), cols = mapped sw iters *)
  List.iteri
    (fun c (s, _) ->
      let col = Mac_view.column t.view ~src_perm:t.src_perm s in
      Array.iteri (fun r v -> if v then Bin_matrix.set x r c true) col)
    m;
  (* Y: rows = used intrinsic iters, cols = mapped sw iters *)
  List.iteri
    (fun c (_, k) ->
      List.iteri
        (fun r k' -> if Iter.equal k k' then Bin_matrix.set y r c true)
        used)
    m;
  (* Z: rows = operands, cols = used intrinsic iters *)
  let operands =
    t.intr.Intrinsic.compute.Compute_abs.dst
    :: t.intr.Intrinsic.compute.Compute_abs.srcs
  in
  List.iteri
    (fun r o ->
      List.iteri
        (fun c k -> if Compute_abs.uses o k then Bin_matrix.set z r c true)
        used)
    operands

let matrices t =
  let m = mapped t in
  let used = used_intrinsic_iters t in
  let n_rows = 1 + List.length t.view.Mac_view.srcs in
  let x = Bin_matrix.create ~rows:n_rows ~cols:(List.length m) in
  let y = Bin_matrix.create ~rows:(List.length used) ~cols:(List.length m) in
  let z = Bin_matrix.create ~rows:n_rows ~cols:(List.length used) in
  fill_matrices t ~m ~used ~x ~y ~z;
  (x, y, z)

let validate t =
  match mapped t with
  | [] -> false
  | _ ->
      let x, y, z = matrices t in
      let x' = Bin_matrix.mul z y in
      let z' = Bin_matrix.mul x (Bin_matrix.transpose y) in
      Bin_matrix.equal x' x && Bin_matrix.equal z' z

type workspace = {
  sx : Bin_matrix.Scratch.slot;
  sy : Bin_matrix.Scratch.slot;
  sz : Bin_matrix.Scratch.slot;
  syt : Bin_matrix.Scratch.slot;
  sxp : Bin_matrix.Scratch.slot;
  szp : Bin_matrix.Scratch.slot;
  memo : (string, bool) Hashtbl.t;
  key : Buffer.t;
}

let workspace () =
  {
    sx = Bin_matrix.Scratch.slot ();
    sy = Bin_matrix.Scratch.slot ();
    sz = Bin_matrix.Scratch.slot ();
    syt = Bin_matrix.Scratch.slot ();
    sxp = Bin_matrix.Scratch.slot ();
    szp = Bin_matrix.Scratch.slot ();
    memo = Hashtbl.create 256;
    key = Buffer.create 128;
  }

let validate_ws ws t =
  match mapped t with
  | [] -> false
  | m ->
      let used = used_intrinsic_iters t in
      let n_rows = 1 + List.length t.view.Mac_view.srcs in
      let n_mapped = List.length m and n_used = List.length used in
      let x = Bin_matrix.Scratch.ensure ws.sx ~rows:n_rows ~cols:n_mapped in
      let y = Bin_matrix.Scratch.ensure ws.sy ~rows:n_used ~cols:n_mapped in
      let z = Bin_matrix.Scratch.ensure ws.sz ~rows:n_rows ~cols:n_used in
      Bin_matrix.clear x;
      Bin_matrix.clear y;
      Bin_matrix.clear z;
      fill_matrices t ~m ~used ~x ~y ~z;
      (* Memo key: dimensions + the packed words of (X, Y, Z).  Candidates
         across the generation loop share Y structure and frequently whole
         triples, so repeats skip the products entirely.  Padding is zero
         after [clear]+[set] and [fold_words] masks it anyway, so the key is
         canonical. *)
      Buffer.clear ws.key;
      let add_int v = Buffer.add_int64_ne ws.key (Int64.of_int v) in
      add_int n_rows;
      add_int n_mapped;
      add_int n_used;
      List.iter (fun mat -> Bin_matrix.fold_words (fun () w -> add_int w) () mat)
        [ x; y; z ];
      let key = Buffer.contents ws.key in
      match Hashtbl.find_opt ws.memo key with
      | Some verdict -> verdict
      | None ->
          let yt =
            Bin_matrix.Scratch.ensure ws.syt ~rows:n_mapped ~cols:n_used
          in
          Bin_matrix.transpose_into yt y;
          let x' =
            Bin_matrix.Scratch.ensure ws.sxp ~rows:n_rows ~cols:n_mapped
          in
          Bin_matrix.mul_into x' z y;
          let z' =
            Bin_matrix.Scratch.ensure ws.szp ~rows:n_rows ~cols:n_used
          in
          Bin_matrix.mul_into z' x yt;
          let verdict = Bin_matrix.equal x' x && Bin_matrix.equal z' z in
          Hashtbl.add ws.memo key verdict;
          verdict

let feasible t =
  List.for_all
    (fun k ->
      (not (Iter.is_reduction k))
      ||
      match sw_iters_of t k with
      | [] -> true
      | [ single ] -> Mac_view.independent t.view single
      | _ :: _ :: _ -> true)
    (used_intrinsic_iters t)

let explain t =
  let x, y, z = matrices t in
  let x' = Bin_matrix.mul z y in
  let z' = Bin_matrix.mul x (Bin_matrix.transpose y) in
  let verdict = Bin_matrix.equal x' x && Bin_matrix.equal z' z in
  let b = Buffer.create 512 in
  let add_matrix name m =
    Buffer.add_string b (Format.asprintf "%s =@.%a@." name Bin_matrix.pp m)
  in
  Buffer.add_string b
    (Printf.sprintf "operands: %s\n"
       (String.concat ", "
          (List.map
             (fun (o : Compute_abs.operand) -> o.Compute_abs.name)
             (t.intr.Intrinsic.compute.Compute_abs.dst
             :: t.intr.Intrinsic.compute.Compute_abs.srcs))));
  Buffer.add_string b
    (Printf.sprintf "mapped software iterations: %s\n"
       (String.concat ", "
          (List.map
             (fun ((s : Iter.t), (k : Iter.t)) ->
               s.Iter.name ^ " -> " ^ k.Iter.name)
             (mapped t))));
  add_matrix "X (software access)" x;
  add_matrix "Y (matching)" y;
  add_matrix "Z (intrinsic access)" z;
  add_matrix "X' = Z # Y" x';
  add_matrix "Z' = X # Y^T" z';
  Buffer.add_string b
    (Printf.sprintf "X' = X: %b, Z' = Z: %b => %s\n"
       (Bin_matrix.equal x' x) (Bin_matrix.equal z' z)
       (if verdict then "VALID" else "INVALID"));
  Buffer.contents b

(* One pass into one buffer: per intrinsic iteration in order, the
   software iterations assigned to it, in op order.  The text is hashed
   into every mapping's RNG stream ([Explore.mapping_seed]), so it must
   stay byte-identical to the renderer the test suite keeps as its
   oracle. *)
let describe t =
  let b = Buffer.create 64 in
  let used =
    List.filter_map
      (fun k -> match sw_iters_of t k with [] -> None | l -> Some (k, l))
      t.intr.Intrinsic.compute.Compute_abs.iters
  in
  let rec product = function
    | [] -> 1
    | (it : Iter.t) :: rest -> it.Iter.extent * product rest
  in
  (* mixed-radix fusion, first iteration slowest: a term's stride is the
     product of the extents after it *)
  let rec terms first = function
    | [] -> ()
    | (it : Iter.t) :: rest ->
        if not first then Buffer.add_string b " + ";
        Buffer.add_string b it.Iter.name;
        let stride = product rest in
        if stride <> 1 then begin
          Buffer.add_char b '*';
          Buffer.add_string b (string_of_int stride)
        end;
        terms false rest
  in
  let fused_text ((k : Iter.t), sws) =
    (* extent-1 iterations contribute nothing to the fused index; keep the
       description readable by omitting them (unless everything is 1) *)
    let sws =
      match List.filter (fun (it : Iter.t) -> it.Iter.extent > 1) sws with
      | [] -> ( match sws with [] -> [] | first :: _ -> [ first ])
      | nontrivial -> nontrivial
    in
    (match sws with
    | [] | [ _ ] -> terms true sws
    | _ :: _ :: _ ->
        Buffer.add_char b '(';
        terms true sws;
        Buffer.add_char b ')');
    Buffer.add_string b " mod ";
    Buffer.add_string b (string_of_int k.Iter.extent)
  in
  let list f l =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b ", ";
        f x)
      l
  in
  Buffer.add_char b '[';
  list (fun ((k : Iter.t), _) -> Buffer.add_string b k.Iter.name) used;
  Buffer.add_string b "] <- [";
  list fused_text used;
  Buffer.add_char b ']';
  Buffer.contents b
