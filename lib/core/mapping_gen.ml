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

(* Algorithm 1 over every candidate assignment, in generation order *)
let enumerate ~filter view intr =
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

(* --- the structural memo ------------------------------------------------ *)

(* Everything [enumerate] reads, and nothing more: the filter flag; the
   intrinsic's iteration kinds and extents (the automorphism test pairs
   iterations of equal extent and kind) and each operand's slots by
   position; the number of view sources; and per software iteration, in
   op order, its access column under the identity correspondence (a
   [src_perm] only reorders its rows), its reduction flag and its
   independence flag.  Names, [Iter.t] ids and software extents stay
   out, so every operator and intrinsic of one structure shares a key. *)
let structure_key ~filter view intr =
  let compute = intr.Intrinsic.compute in
  let b = Buffer.create 64 in
  let flag c on off = Buffer.add_char b (if c then on else off) in
  flag filter 'f' 'u';
  List.iter
    (fun (k : Iter.t) ->
      flag (Iter.is_reduction k) 'r' 's';
      Buffer.add_string b (string_of_int k.Iter.extent))
    compute.Compute_abs.iters;
  List.iter
    (fun (o : Compute_abs.operand) ->
      Buffer.add_char b '/';
      List.iter
        (fun k ->
          Buffer.add_string b (string_of_int (Compute_abs.iter_pos compute k));
          Buffer.add_char b ',')
        o.Compute_abs.slots)
    (compute.Compute_abs.dst :: compute.Compute_abs.srcs);
  let n_srcs = List.length view.Mac_view.srcs in
  Buffer.add_char b ';';
  Buffer.add_string b (string_of_int n_srcs);
  let identity = Array.init n_srcs Fun.id in
  List.iter
    (fun s ->
      Buffer.add_char b ';';
      Array.iter
        (fun u -> flag u '1' '0')
        (Mac_view.column view ~src_perm:identity s);
      flag (Iter.is_reduction s) 'r' 's';
      flag (Mac_view.independent view s) 'i' 'd')
    view.Mac_view.op.Operator.iters;
  Buffer.contents b

(* A key's validated list, packed one byte per entry: per matching, its
   [src_perm], then per software iteration 0 for an outer loop or 1 + the
   intrinsic position it maps to.  (An intrinsic past 254 iterations
   could not be packed, but [src_perms] enumerates every permutation of
   the intrinsic's iterations, so no such intrinsic is ever enumerated.) *)
let pack intr ms =
  let compute = intr.Intrinsic.compute in
  let b = Buffer.create 256 in
  List.iter
    (fun (m : Matching.t) ->
      Array.iter (fun p -> Buffer.add_char b (Char.chr p)) m.Matching.src_perm;
      Array.iter
        (function
          | None -> Buffer.add_char b '\000'
          | Some k -> Buffer.add_char b (Char.chr (1 + Compute_abs.iter_pos compute k)))
        m.Matching.assign)
    ms;
  Buffer.contents b

(* rebuild the packed matchings over [view] and [intr], by position *)
let unpack view intr packed =
  let n_srcs = List.length view.Mac_view.srcs in
  let n_sw = List.length view.Mac_view.op.Operator.iters in
  let stride = n_srcs + n_sw in
  let targets =
    Array.of_list
      (List.map Option.some intr.Intrinsic.compute.Compute_abs.iters)
  in
  List.init (String.length packed / stride) (fun j ->
      let at i = Char.code (String.unsafe_get packed ((j * stride) + i)) in
      {
        Matching.view;
        intr;
        src_perm = Array.init n_srcs at;
        assign =
          Array.init n_sw (fun i ->
              match at (n_srcs + i) with 0 -> None | p -> targets.(p - 1));
      })

(* Bounded like the daemon's request memo: keys are admitted while fewer
   than [memo_capacity] are held, and never evicted.  The lock guards
   only the table, never an enumeration, so domains generating at once
   wait on each other for a lookup at most. *)
let memo_capacity = 512
let memo : (string, string) Hashtbl.t = Hashtbl.create 64
let memo_lock = Mutex.create ()

let generate ?(filter = true) view intr =
  let key = structure_key ~filter view intr in
  match Mutex.protect memo_lock (fun () -> Hashtbl.find_opt memo key) with
  | Some packed -> unpack view intr packed
  | None ->
      let ms = enumerate ~filter view intr in
      let packed = pack intr ms in
      Mutex.protect memo_lock (fun () ->
          if Hashtbl.length memo < memo_capacity && not (Hashtbl.mem memo key)
          then Hashtbl.add memo key packed);
      ms

let generate_op ?filter op intr =
  match Mac_view.of_operator op with
  | None -> []
  | Some view -> generate ?filter view intr

let count ?filter op intr = List.length (generate_op ?filter op intr)
