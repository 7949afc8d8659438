open Amos_ir
module Rng = Amos_tensor.Rng

type dim = {
  name : string;
  extent : int;
  parallelizable : bool;
  origin : [ `Outer_sw of Iter.t | `Tile of int ];
}

type split = {
  block : int;
  subcore : int;
  serial : int;
}

type t = {
  splits : split array;
  stage_depth : int;
  unroll : int;
  vectorize : bool;
}

(* Structural equality and a hash over every field, for tables keyed by
   schedule.  The generic [Hashtbl.hash] stops after 10 meaningful words,
   so it never reads past the block factor of the third split.  This
   hash is a polynomial in the odd base 31: changing one field by [d]
   moves it by [d] times an odd number, which is not a multiple of 2^62
   while |d| < 2^62, so the hash changes. *)
let equal a b =
  (* a direct loop: on the memo's hit path, [Array.for_all2]'s closure
     call per split makes a 6-split compare take 46 ns instead of 28 *)
  let n = Array.length a.splits in
  let rec splits_from i =
    i = n
    ||
    let x = a.splits.(i) and y = b.splits.(i) in
    x.block = y.block && x.subcore = y.subcore && x.serial = y.serial
    && splits_from (i + 1)
  in
  a.stage_depth = b.stage_depth && a.unroll = b.unroll
  && Bool.equal a.vectorize b.vectorize
  && n = Array.length b.splits && splits_from 0

let hash t =
  let h =
    ref ((((t.stage_depth * 31) + t.unroll) * 31) + Bool.to_int t.vectorize)
  in
  for i = 0 to Array.length t.splits - 1 do
    let s = t.splits.(i) in
    h := (((((!h * 31) + s.block) * 31) + s.subcore) * 31) + s.serial
  done;
  !h land max_int

let dims (m : Mapping.t) =
  let sw =
    List.map
      (fun (it : Iter.t) ->
        {
          name = it.Iter.name;
          extent = it.Iter.extent;
          parallelizable = not (Iter.is_reduction it);
          origin = `Outer_sw it;
        })
      m.Mapping.outer_sw
  in
  let tiles =
    List.filter_map
      (fun (fd : Mapping.fused_dim) ->
        if fd.Mapping.tiles > 1 then
          Some
            {
              name = fd.Mapping.intr_iter.Iter.name ^ ".t";
              extent = fd.Mapping.tiles;
              parallelizable = not (Iter.is_reduction fd.Mapping.intr_iter);
              origin = `Tile fd.Mapping.intr_pos;
            }
        else None)
      (Array.to_list m.Mapping.fused)
  in
  sw @ tiles

let ceil_div a b = (a + b - 1) / b

let serial_split extent = { block = 1; subcore = 1; serial = extent }

let full_block_split extent = { block = extent; subcore = 1; serial = 1 }

(* Block-factor menu of an extent, ascending: its divisors, found by a
   walk up to √extent ([lo] collects d descending, [hi] collects
   extent/d ascending), merged with the non-dividing powers of two below
   it (covered by ceil + padding).  [d <= extent / d] is [d * d <=
   extent] without the overflow. *)
let build_block_choices extent =
  let rec walk d lo hi =
    if d > extent / d then List.rev_append lo hi
    else if extent mod d <> 0 then walk (d + 1) lo hi
    else if d = extent / d then walk (d + 1) (d :: lo) hi
    else walk (d + 1) (d :: lo) ((extent / d) :: hi)
  in
  let rec merge p divs =
    if p > 128 || p >= extent then divs
    else
      match divs with
      | d :: rest when d < p -> d :: merge p rest
      | d :: rest when d = p -> d :: merge (2 * p) rest
      | _ -> p :: merge (2 * p) divs
  in
  Array.of_list (merge 2 (walk 1 [] []))

(* Sub-core menu of what a block leaves, ascending: the block menu's
   members up to 8, in one pass over 1..8 -- the divisors of [rest],
   plus 2, 4 and 8 below it. *)
let build_subcore_choices rest =
  let rec go f acc =
    if f = 0 then acc
    else
      let keep = rest mod f = 0 || (f land (f - 1) = 0 && f < rest) in
      go (f - 1) (if keep then f :: acc else acc)
  in
  Array.of_list (go 8 [])

(* Both menus are pure functions of one int, and the mappings of a tune
   share most dim extents, so each domain keeps the menus it has built:
   up to [menu_capacity] per table, admitted until full and never
   evicted.  A menu is shared, so no caller may mutate it. *)
module Int_tbl = Hashtbl.Make (Int)

let menu_capacity = 4096

let menu_tables =
  Domain.DLS.new_key (fun () -> (Int_tbl.create 256, Int_tbl.create 256))

let shared table build n =
  match Int_tbl.find_opt table n with
  | Some menu -> menu
  | None ->
      let menu = build n in
      if Int_tbl.length table < menu_capacity then Int_tbl.add table n menu;
      menu

let block_choices extent =
  shared (fst (Domain.DLS.get menu_tables)) build_block_choices extent

let subcore_choices rest =
  shared (snd (Domain.DLS.get menu_tables)) build_subcore_choices rest

let crossover rng a b =
  let n = Array.length a.splits in
  {
    splits = Array.init n (fun i -> if Rng.bool rng then a.splits.(i) else b.splits.(i));
    stage_depth = (if Rng.bool rng then a.stage_depth else b.stage_depth);
    unroll = (if Rng.bool rng then a.unroll else b.unroll);
    vectorize = (if Rng.bool rng then a.vectorize else b.vectorize);
  }

let validate_dims ds t =
  (* allocation-free walk: same predicate as zipping [ds] with the splits
     and checking lengths match *)
  let n = Array.length t.splits in
  let rec go i = function
    | [] -> i = n
    | d :: rest ->
        i < n
        && (let s = t.splits.(i) in
            s.block >= 1 && s.subcore >= 1 && s.serial >= 1
            && s.block * s.subcore * s.serial >= d.extent
            && (d.parallelizable || (s.block = 1 && s.subcore = 1)))
        && go (i + 1) rest
  in
  go 0 ds && t.stage_depth >= 1 && t.unroll >= 1

let validate m t = validate_dims (dims m) t

(* Precomputed search space for one mapping: the dims list (recomputing it
   per candidate walks the mapping every time) and the split menus of
   each dim, which a genetic search redraws from thousands of times.
   Per-dim split-choice tables, filled lazily: [s_dim_blocks.(i)] is the
   block-factor menu of dim [i]; [s_dim_subs.(i).(bi)] the sub-core menu
   left after drawing block choice [bi].  The empty array is the
   not-yet-computed sentinel: every real menu contains 1 so it is never
   empty, and empty arrays are all physically the shared atom, making
   [!= [||]] a valid test. *)
type space = {
  s_dims : dim list;
  s_dims_arr : dim array;
  s_dim_blocks : int array array;
  s_dim_subs : int array array array;
}

let space m =
  let ds = dims m in
  let n = List.length ds in
  {
    s_dims = ds;
    s_dims_arr = Array.of_list ds;
    s_dim_blocks = Array.make n [||];
    s_dim_subs = Array.make n [||];
  }

let unroll_choices = [| 1; 2; 4; 8 |]

let dim_blocks sp i =
  let b = sp.s_dim_blocks.(i) in
  if b != [||] then b
  else begin
    let a = block_choices sp.s_dims_arr.(i).extent in
    sp.s_dim_blocks.(i) <- a;
    sp.s_dim_subs.(i) <- Array.make (Array.length a) [||];
    a
  end

let dim_subs sp i bi block =
  let su = sp.s_dim_subs.(i).(bi) in
  if su != [||] then su
  else begin
    let a = subcore_choices (ceil_div sp.s_dims_arr.(i).extent block) in
    sp.s_dim_subs.(i).(bi) <- a;
    a
  end

(* Draws exactly like {!Rng.pick} on the equivalent lists: one [Rng.int]
   per choice with the same bound, indexing the same element order. *)
let pick_in rng a = a.(Rng.int rng (Array.length a))

let random_split_at sp rng i =
  let d = sp.s_dims_arr.(i) in
  if not d.parallelizable then serial_split d.extent
  else
    let blocks = dim_blocks sp i in
    let bi = Rng.int rng (Array.length blocks) in
    let block = blocks.(bi) in
    let subcore = pick_in rng (dim_subs sp i bi block) in
    let serial = ceil_div (ceil_div d.extent block) subcore in
    { block; subcore; serial }

let default_in sp =
  {
    splits =
      Array.map
        (fun d ->
          if d.parallelizable then full_block_split d.extent
          else serial_split d.extent)
        sp.s_dims_arr;
    stage_depth = 2;
    unroll = 4;
    vectorize = true;
  }

let random_in sp rng =
  (* the splits loop must stay inside the field expression: record fields
     evaluate in an unspecified (right-to-left in practice) order, and
     the draw order of splits, stage, unroll and vectorize is part of
     every pinned tuning result *)
  {
    splits =
      (let n = Array.length sp.s_dims_arr in
       let splits = Array.make n (serial_split 1) in
       for i = 0 to n - 1 do
         splits.(i) <- random_split_at sp rng i
       done;
       splits);
    stage_depth = 1 + Rng.int rng 4;
    unroll = unroll_choices.(Rng.int rng 4);
    vectorize = Rng.bool rng;
  }

let mutate_in sp rng t =
  let ds = sp.s_dims_arr in
  let t = { t with splits = Array.copy t.splits } in
  match Rng.int rng 4 with
  | 0 when Array.length ds > 0 ->
      let i = Rng.int rng (Array.length ds) in
      t.splits.(i) <- random_split_at sp rng i;
      t
  | 1 -> { t with stage_depth = 1 + Rng.int rng 4 }
  | 2 -> { t with unroll = unroll_choices.(Rng.int rng 4) }
  | _ -> { t with vectorize = Rng.bool rng }

let validate_in sp t = validate_dims sp.s_dims t

let default m = default_in (space m)
let random rng m = random_in (space m) rng
let mutate rng m t = mutate_in (space m) rng t

let describe m t =
  let ds = dims m in
  let parts =
    List.map2
      (fun d s -> Printf.sprintf "%s:%dx%dx%d" d.name s.block s.subcore s.serial)
      ds (Array.to_list t.splits)
  in
  Printf.sprintf "splits[%s] stage=%d unroll=%d vec=%b"
    (String.concat " " parts) t.stage_depth t.unroll t.vectorize
