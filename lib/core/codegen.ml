open Amos_ir
module K = Spatial_sim.Kernel

type dim_parts = {
  extent : int;
  b_pos : int;  (* -1 when the part has extent 1 and is omitted *)
  w_pos : int;
  s_pos : int;
  b_ext : int;
  w_ext : int;
  s_ext : int;
}

(* Per software iteration: how to recover its value. *)
type sw_role =
  | Outer of int  (* index into the dims/parts table *)
  | Mapped of {
      intr_pos : int;
      fused : Mapping.fused_dim;
      tile_dim : int option;  (* dims-table index of the tile loop *)
      radix_stride : int;  (* stride of this iteration inside the fusion *)
    }

let build_parts (sched : Schedule.t) dims =
  let next = ref 0 in
  let alloc ext = if ext <= 1 then -1 else (let p = !next in incr next; p) in
  let parts =
    List.map2
      (fun (d : Schedule.dim) (s : Schedule.split) ->
        let b_pos = alloc s.Schedule.block in
        let w_pos = alloc s.Schedule.subcore in
        let s_pos = alloc s.Schedule.serial in
        {
          extent = d.Schedule.extent;
          b_pos; w_pos; s_pos;
          b_ext = s.Schedule.block;
          w_ext = s.Schedule.subcore;
          s_ext = s.Schedule.serial;
        })
      dims (Array.to_list sched.Schedule.splits)
  in
  let outer_extents = Array.make !next 1 in
  let level_of = Array.make !next 2 in
  List.iter
    (fun p ->
      if p.b_pos >= 0 then begin outer_extents.(p.b_pos) <- p.b_ext; level_of.(p.b_pos) <- 0 end;
      if p.w_pos >= 0 then begin outer_extents.(p.w_pos) <- p.w_ext; level_of.(p.w_pos) <- 1 end;
      if p.s_pos >= 0 then begin outer_extents.(p.s_pos) <- p.s_ext; level_of.(p.s_pos) <- 2 end)
    parts;
  (Array.of_list parts, outer_extents, level_of)

let dim_value parts outer i =
  let p = parts.(i) in
  let get pos = if pos < 0 then 0 else outer.(pos) in
  ((get p.b_pos * p.w_ext) + get p.w_pos) * p.s_ext + get p.s_pos

let radix_stride (fd : Mapping.fused_dim) (it : Iter.t) =
  let rec go = function
    | [] -> raise Not_found
    | (x : Iter.t) :: rest ->
        if Iter.equal x it then
          List.fold_left (fun acc (j : Iter.t) -> acc * j.Iter.extent) 1 rest
        else go rest
  in
  go fd.Mapping.sw_iters

(* How one iteration's cover (consecutive values spanned within a block or
   pipeline step) is obtained from the splits: fixed across schedules, read
   from an outer dim's split, or derived from a tile dim's split.  Resolved
   once per mapping so the per-schedule footprint is pure arithmetic. *)
type fp_cover =
  | Fp_const of int
  | Fp_outer of int  (* dims index *)
  | Fp_tile of { di : int; intr_extent : int; radix_stride : int }

(* One affine index expression of an access: [(abs coeff, iter extent,
   cover source)] per term.  Its span is
   [1 + sum(abs_c * (clamp(cover) - 1))]; an access's footprint is the
   product of its factors ({!Footprint.access_elems} unrolled). *)
type fp_factor = (int * int * fp_cover) array

(* Everything about a (mapping, accelerator) pair that does not depend on
   the schedule: iteration roles, operand slot positions, tile shapes and
   byte sizes, source kinds, footprint structure, memory-efficiency score,
   kernel name.  In a genetic search hundreds of schedules are lowered
   against one mapping; computing this once and reusing it is the
   "incremental re-evaluation when only schedule scalars change" of
   ROADMAP item 3. *)
type prepared = {
  p_mapping : Mapping.t;
  p_op : Operator.t;
  p_intr : Intrinsic.t;
  p_intr_iters : Iter.t array;
  p_dims : Schedule.dim list;
  p_roles : (Iter.t * sw_role) list;
  p_dst_slot_pos : int array;
  p_src_operands : Compute_abs.operand array;
  p_src_slot_pos : int array array;
  p_elem_bytes : int;
  p_acc_bytes : int;
  p_src_tile_extents : int array array;
  p_dst_tile_extents : int array;
  p_out_bytes_per_tile : int;
  p_sources : Mac_view.source array;  (* per intrinsic source, permuted *)
  p_virtual : bool array;
  p_dim_index_of_tile : int option array;  (* per intrinsic position *)
  p_dst_dim_dep : bool array;  (* aligned with p_dims *)
  p_dim_par : bool array;  (* parallelizable flag per dim *)
  p_src_footprints : fp_factor array array array;
      (* per source: the accesses (two for Diff_sq) whose footprints sum *)
  p_reg_load_raw : float;  (* sum of real-source bytes_per_tile *)
  p_max_load_elems : int;  (* largest register tile, min_int when no srcs *)
  p_iter_extents : int array;
  p_flops_per_call : float;
  p_mem_efficiency : float;
  p_name : string;
}

let prepare (accel : Accelerator.t) (m : Mapping.t) =
  ignore accel;
  let matching = m.Mapping.matching in
  let view = matching.Matching.view in
  let op = view.Mac_view.op in
  let intr = matching.Matching.intr in
  let compute = intr.Intrinsic.compute in
  let intr_iters = Array.of_list compute.Compute_abs.iters in
  let dims = Schedule.dims m in
  (* dims-table index per origin *)
  let dim_index_of_outer it =
    let rec go i = function
      | [] -> raise Not_found
      | (d : Schedule.dim) :: rest -> (
          match d.Schedule.origin with
          | `Outer_sw it' when Iter.equal it it' -> i
          | `Outer_sw _ | `Tile _ -> go (i + 1) rest)
    in
    go 0 dims
  in
  let dim_index_of_tile pos =
    let rec go i = function
      | [] -> None
      | (d : Schedule.dim) :: rest -> (
          match d.Schedule.origin with
          | `Tile p when p = pos -> Some i
          | `Tile _ | `Outer_sw _ -> go (i + 1) rest)
    in
    go 0 dims
  in
  (* role of each software iteration *)
  let roles =
    List.map
      (fun (it : Iter.t) ->
        let rec find_mapped pos =
          if pos >= Array.length m.Mapping.fused then None
          else
            let fd = m.Mapping.fused.(pos) in
            if List.exists (Iter.equal it) fd.Mapping.sw_iters then
              Some
                (Mapped
                   {
                     intr_pos = pos;
                     fused = fd;
                     tile_dim = dim_index_of_tile pos;
                     radix_stride = radix_stride fd it;
                   })
            else find_mapped (pos + 1)
        in
        match find_mapped 0 with
        | Some r -> (it, r)
        | None -> (it, Outer (dim_index_of_outer it)))
      op.Operator.iters
  in
  let role_of it =
    let rec go = function
      | [] -> invalid_arg ("Codegen: unknown iter " ^ it.Iter.name)
      | (j, r) :: rest -> if Iter.equal it j then r else go rest
    in
    go roles
  in
  (* slot positions of each intrinsic operand within the iteration list *)
  let slot_positions (o : Compute_abs.operand) =
    Array.of_list (List.map (Compute_abs.iter_pos compute) o.Compute_abs.slots)
  in
  let dst_slot_pos = slot_positions compute.Compute_abs.dst in
  let src_operands = Array.of_list compute.Compute_abs.srcs in
  let src_slot_pos = Array.map slot_positions src_operands in
  let elem_bytes = Tensor_decl.elem_bytes intr.Intrinsic.dtype in
  let acc_bytes = Tensor_decl.elem_bytes intr.Intrinsic.acc_dtype in
  (* tiles are full problem-size shaped (hardware fragments) *)
  let operand_tile_extents (o : Compute_abs.operand) =
    Array.of_list (List.map (fun (it : Iter.t) -> it.Iter.extent) o.Compute_abs.slots)
  in
  let dst_tile_extents = operand_tile_extents compute.Compute_abs.dst in
  (* which view source feeds intrinsic source [mi] *)
  let view_srcs = Array.of_list view.Mac_view.srcs in
  let sources =
    Array.init (Array.length src_operands) (fun mi ->
        view_srcs.(matching.Matching.src_perm.(mi)))
  in
  let virtuals =
    Array.map
      (function
        | Mac_view.Tensor _ -> false
        | Mac_view.Ones _ -> true
        | Mac_view.Diff_sq _ -> false)
      sources
  in
  let n_tiles = Array.length m.Mapping.fused in
  let tile_dim_table = Array.init n_tiles dim_index_of_tile in
  let dst_needed =
    List.concat_map Affine.iters op.Operator.output.Operator.index
  in
  let depends_on_dim needed slots_pos (d : Schedule.dim) =
    match d.Schedule.origin with
    | `Outer_sw it -> List.exists (Iter.equal it) needed
    | `Tile pos ->
        Array.exists (fun p -> p = pos) slots_pos
        || List.exists
             (fun it ->
               match role_of it with
               | Mapped { intr_pos; _ } -> intr_pos = pos
               | Outer _ -> false)
             needed
  in
  let dst_dim_dep =
    List.map (depends_on_dim dst_needed dst_slot_pos) dims
  in
  (* footprint structure: resolve each access-index term's cover source so
     the per-schedule footprint (Sec 5.3's DataIn) is pure arithmetic *)
  let fp_cover_of it =
    match role_of it with
    | Outer di -> Fp_outer di
    | Mapped { intr_pos; tile_dim; radix_stride; _ } -> (
        let ext = intr_iters.(intr_pos).Iter.extent in
        match tile_dim with
        | None -> Fp_const ((ext + radix_stride - 1) / radix_stride)
        | Some di -> Fp_tile { di; intr_extent = ext; radix_stride })
  in
  let fp_access (acc : Operator.access) =
    Array.of_list
      (List.map
         (fun a ->
           Array.of_list
             (List.map
                (fun (it : Iter.t) ->
                  (abs (Affine.coeff a it), it.Iter.extent, fp_cover_of it))
                (Affine.iters a)))
         acc.Operator.index)
  in
  let src_footprints =
    Array.map
      (function
        | Mac_view.Tensor { acc; _ } -> [| fp_access acc |]
        | Mac_view.Diff_sq { a; b; _ } -> [| fp_access a; fp_access b |]
        | Mac_view.Ones _ -> [||])
      sources
  in
  let src_tile_extents = Array.map operand_tile_extents src_operands in
  let reg_load_raw =
    let r = ref 0. in
    for mi = 0 to Array.length src_operands - 1 do
      if not virtuals.(mi) then
        r :=
          !r
          +. float_of_int
               (Array.fold_left ( * ) 1 src_tile_extents.(mi) * elem_bytes)
    done;
    !r
  in
  (* coalescing quality: is the innermost index of each real tensor driven
     by the fastest-varying component of a fused intrinsic dimension? *)
  let innermost_quality (acc : Operator.access) =
    match List.rev acc.Operator.index with
    | [] -> 1.0
    | inner :: _ ->
        let fast it =
          match role_of it with
          | Mapped { fused; _ } -> (
              match List.rev fused.Mapping.sw_iters with
              | last :: _ -> Iter.equal last it
              | [] -> false)
          | Outer _ -> false
        in
        if List.exists (fun it -> Affine.coeff inner it = 1 && fast it)
             (Affine.iters inner)
        then 1.0
        else 0.7
  in
  let mem_efficiency =
    let accs =
      op.Operator.output
      :: List.filter_map
           (fun mi ->
             if virtuals.(mi) then None
             else
               match sources.(mi) with
               | Mac_view.Tensor { acc; _ } -> Some acc
               | Mac_view.Diff_sq { a; _ } -> Some a
               | Mac_view.Ones _ -> None)
           (List.init (Array.length sources) (fun mi -> mi))
    in
    let product = List.fold_left (fun p a -> p *. innermost_quality a) 1. accs in
    product ** (1. /. float_of_int (max 1 (List.length accs)))
  in
  {
    p_mapping = m;
    p_op = op;
    p_intr = intr;
    p_intr_iters = intr_iters;
    p_dims = dims;
    p_roles = roles;
    p_dst_slot_pos = dst_slot_pos;
    p_src_operands = src_operands;
    p_src_slot_pos = src_slot_pos;
    p_elem_bytes = elem_bytes;
    p_acc_bytes = acc_bytes;
    p_src_tile_extents = src_tile_extents;
    p_dst_tile_extents = dst_tile_extents;
    p_out_bytes_per_tile = Array.fold_left ( * ) 1 dst_tile_extents * acc_bytes;
    p_sources = sources;
    p_virtual = virtuals;
    p_dim_index_of_tile = tile_dim_table;
    p_dst_dim_dep = Array.of_list dst_dim_dep;
    p_dim_par =
      Array.of_list
        (List.map (fun (d : Schedule.dim) -> d.Schedule.parallelizable) dims);
    p_src_footprints = src_footprints;
    p_reg_load_raw = reg_load_raw;
    p_max_load_elems =
      Array.fold_left
        (fun acc te -> max acc (Array.fold_left ( * ) 1 te))
        min_int src_tile_extents;
    p_iter_extents =
      Array.map (fun (it : Iter.t) -> it.Iter.extent) intr_iters;
    p_flops_per_call = Intrinsic.flops_per_call intr;
    p_mem_efficiency = mem_efficiency;
    p_name = op.Operator.name ^ "@" ^ intr.Intrinsic.name;
  }

(* ---- timing metadata ----
   Bound inference (Sec 5.3's DataIn/DataOut): within one block (or one
   pipeline step), how many consecutive values does each software
   iteration cover?  Outer iterations cover their sub-core x serial
   local extent; matched iterations cover what the local tiles of their
   fused dimension span, divided by their mixed-radix stride.

   global->shared staging moves raw (footprint) data, exploiting
   window-overlap reuse; register fragments and the fragment store are
   full hardware tiles regardless.  The footprint structure was resolved
   in [prepare]; here each access is [Footprint.access_elems] unrolled
   to arithmetic over the splits. *)
(* [step = false] is block scope (sub-core x serial local extent),
   [step = true] is one pipeline step (sub-core only) *)
let fp_cover_val splits ~step cov =
  match cov with
  | Fp_const c -> c
  | Fp_outer di ->
      let s = splits.(di) in
      if step then s.Schedule.subcore
      else s.Schedule.subcore * s.Schedule.serial
  | Fp_tile { di; intr_extent; radix_stride } ->
      let s = splits.(di) in
      let le =
        if step then s.Schedule.subcore
        else s.Schedule.subcore * s.Schedule.serial
      in
      let g_span = le * intr_extent in
      (g_span + radix_stride - 1) / radix_stride

let fp_factor_span splits ~step (factor : fp_factor) =
  let acc = ref 1 in
  for t = 0 to Array.length factor - 1 do
    let c, ext, cov = factor.(t) in
    acc :=
      !acc + (c * (Int.max 1 (Int.min ext (fp_cover_val splits ~step cov)) - 1))
  done;
  !acc

let fp_source_footprint splits ~step (accesses : fp_factor array array) =
  let sum = ref 0 in
  for a = 0 to Array.length accesses - 1 do
    let factors = accesses.(a) in
    let prod = ref 1 in
    for f = 0 to Array.length factors - 1 do
      prod := !prod * fp_factor_span splits ~step factors.(f)
    done;
    sum := !sum + !prod
  done;
  !sum

let timing_prepared (p : prepared) (sched : Schedule.t) =
  let splits = sched.Schedule.splits in
  let n_srcs = Array.length p.p_src_operands in
  let global_load = ref 0. in
  let shared = ref 0 in
  for mi = 0 to n_srcs - 1 do
    if not p.p_virtual.(mi) then begin
      global_load :=
        !global_load
        +. float_of_int
             (fp_source_footprint splits ~step:false p.p_src_footprints.(mi)
             * p.p_elem_bytes);
      shared :=
        !shared
        + (fp_source_footprint splits ~step:true p.p_src_footprints.(mi)
           * p.p_elem_bytes * sched.Schedule.stage_depth)
    end
  done;
  (* the fragment store writes full tiles (store_matrix_sync) *)
  let dst_tiles_in_block = ref 1 in
  let reduction_serial = ref 1 in
  for i = 0 to Array.length splits - 1 do
    let s = splits.(i) in
    if p.p_dst_dim_dep.(i) then
      dst_tiles_in_block :=
        !dst_tiles_in_block * s.Schedule.subcore * s.Schedule.serial;
    if not p.p_dim_par.(i) then
      reduction_serial := !reduction_serial * s.Schedule.serial
  done;
  let global_load_bytes = !global_load in
  let global_store_bytes =
    float_of_int (p.p_out_bytes_per_tile * !dst_tiles_in_block)
  in
  let shared_bytes = !shared in
  let reg_load_bytes =
    p.p_reg_load_raw
    *. (if sched.Schedule.vectorize then 1.0 else 1.25)
    *. (1.0 +. (0.3 /. float_of_int sched.Schedule.stage_depth))
  in
  let reg_store_bytes =
    2. *. float_of_int p.p_out_bytes_per_tile
    /. float_of_int (Int.max 1 !reduction_serial)
  in
  {
    K.flops_per_call = p.p_flops_per_call;
    shared_bytes_per_block = shared_bytes;
    global_load_bytes_per_block = global_load_bytes;
    global_store_bytes_per_block = global_store_bytes;
    reg_load_bytes_per_call = reg_load_bytes;
    reg_store_bytes_per_call = reg_store_bytes;
    mem_efficiency = p.p_mem_efficiency;
  }

let issue_cycles_prepared (p : prepared) (sched : Schedule.t) =
  p.p_intr.Intrinsic.issue_cycles
  +. (1.0 /. float_of_int sched.Schedule.unroll)

(* Model-only evaluation: the {!Spatial_sim.Kernel.summary} of
   [lower_prepared p sched], computed without building the kernel — no
   [build_parts], no fetch/store closures.  The level products fold the
   split factors directly (extent-1 factors multiply by 1, so skipping
   the position table changes nothing); the timing record comes from the
   same [timing_prepared] the real lowering uses. *)
let summarize_prepared (p : prepared) (sched : Schedule.t) =
  if not (Schedule.validate_dims p.p_dims sched) then
    invalid_arg "Codegen.lower: schedule does not fit mapping";
  let splits = sched.Schedule.splits in
  let blocks = ref 1 and subcore = ref 1 and serial = ref 1 in
  for i = 0 to Array.length splits - 1 do
    let s = splits.(i) in
    blocks := !blocks * s.Schedule.block;
    subcore := !subcore * s.Schedule.subcore;
    serial := !serial * s.Schedule.serial
  done;
  {
    K.s_issue_cycles = issue_cycles_prepared p sched;
    s_blocks = !blocks;
    s_subcore_parallelism = !subcore;
    s_serial_steps = !serial;
    s_max_load_elems = p.p_max_load_elems;
    s_timing = timing_prepared p sched;
  }

let lower_prepared (p : prepared) (sched : Schedule.t) =
  if not (Schedule.validate_dims p.p_dims sched) then
    invalid_arg "Codegen.lower: schedule does not fit mapping";
  let m = p.p_mapping in
  let op = p.p_op in
  let intr = p.p_intr in
  let intr_iters = p.p_intr_iters in
  let dims = p.p_dims in
  let parts, outer_extents, level_of = build_parts sched dims in
  let role_of it =
    let rec go = function
      | [] -> invalid_arg ("Codegen: unknown iter " ^ it.Iter.name)
      | (j, r) :: rest -> if Iter.equal it j then r else go rest
    in
    go p.p_roles
  in
  (* Decode one software iteration value.
     [slot_of_pos] gives the intrinsic-iteration coordinate visible in the
     current context (a tile slot or a full intrinsic point), or 0 when
     the context cannot see that intrinsic dimension. *)
  let sw_value ~outer ~slot_of_pos it =
    match role_of it with
    | Outer di ->
        let v = dim_value parts outer di in
        if v >= parts.(di).extent then None else Some v
    | Mapped { intr_pos; fused; tile_dim; radix_stride } ->
        let tile =
          match tile_dim with None -> 0 | Some di -> dim_value parts outer di
        in
        let i_k = slot_of_pos intr_pos in
        let g = (tile * intr_iters.(intr_pos).Iter.extent) + i_k in
        if g >= fused.Mapping.fused_extent then None
        else Some (g / radix_stride mod it.Iter.extent)
  in
  (* Evaluate an access's index under a decode context; None = padding. *)
  let eval_access ~outer ~slot_of_pos (acc : Operator.access) =
    let exception Pad in
    match
      List.map
        (fun a ->
          Affine.eval
            (fun it ->
              match sw_value ~outer ~slot_of_pos it with
              | Some v -> v
              | None -> raise Pad)
            a)
        acc.Operator.index
    with
    | idx -> Some (Array.of_list idx)
    | exception Pad -> None
  in
  (* a slot context: given the slot coordinate array of operand [o],
     produce slot_of_pos *)
  let slot_ctx positions slot pos =
    let rec go i =
      if i >= Array.length positions then 0
      else if positions.(i) = pos then slot.(i)
      else go (i + 1)
    in
    go 0
  in
  (* full-point context used by the predicate *)
  let point_ctx point pos = point.(pos) in
  let ones_valid ~outer ~slot_of_pos iters =
    List.for_all
      (fun it -> sw_value ~outer ~slot_of_pos it <> None)
      iters
  in
  (* every slot dimension of the operand must decode in range, even the
     dimensions its access does not need (unused dims pad beyond coord 0) *)
  let slots_in_range positions ~outer ~slot_of_pos =
    Array.for_all
      (fun pos ->
        let fd = m.Mapping.fused.(pos) in
        let tile =
          match p.p_dim_index_of_tile.(pos) with
          | None -> 0
          | Some di -> dim_value parts outer di
        in
        let g = (tile * intr_iters.(pos).Iter.extent) + slot_of_pos pos in
        g < max 1 fd.Mapping.fused_extent)
      positions
  in
  let make_load mi =
    let o = p.p_src_operands.(mi) in
    let positions = p.p_src_slot_pos.(mi) in
    let tile_extents = p.p_src_tile_extents.(mi) in
    let source = p.p_sources.(mi) in
    let fetch outer slot =
      let slot_of_pos = slot_ctx positions slot in
      if not (slots_in_range positions ~outer ~slot_of_pos) then K.Zero
      else
        match source with
        | Mac_view.Tensor { input_idx; acc } -> (
            match eval_access ~outer ~slot_of_pos acc with
            | Some idx -> K.Read (input_idx, idx)
            | None -> K.Zero)
        | Mac_view.Ones iters ->
            if ones_valid ~outer ~slot_of_pos iters then K.One else K.Zero
        | Mac_view.Diff_sq { a_idx; a; b_idx; b } -> (
            match
              ( eval_access ~outer ~slot_of_pos a,
                eval_access ~outer ~slot_of_pos b )
            with
            | Some ia, Some ib -> K.Diff_sq ((a_idx, ia), (b_idx, ib))
            | None, _ | _, None -> K.Zero)
    in
    {
      K.operand = o.Compute_abs.name;
      slot_extents = tile_extents;
      bytes_per_tile =
        Array.fold_left ( * ) 1 tile_extents * p.p_elem_bytes;
      fetch;
    }
  in
  let n_srcs = Array.length p.p_src_operands in
  let loads = Array.to_list (Array.init n_srcs make_load) in
  let store_addr outer dslot =
    let slot_of_pos = slot_ctx p.p_dst_slot_pos dslot in
    if not (slots_in_range p.p_dst_slot_pos ~outer ~slot_of_pos) then None
    else
      match eval_access ~outer ~slot_of_pos op.Operator.output with
      | Some idx -> Some idx
      | None -> None
  in
  let store =
    {
      K.out_slot_extents = p.p_dst_tile_extents;
      out_bytes_per_tile = p.p_out_bytes_per_tile;
      addr = store_addr;
    }
  in
  let predicate =
    match op.Operator.preds with
    | [] -> None
    | preds ->
        Some
          (fun outer point ->
            let slot_of_pos = point_ctx point in
            let exception Inactive in
            match
              List.iter
                (fun pr ->
                  let ok =
                    try
                      Predicate.holds
                        (fun it ->
                          match sw_value ~outer ~slot_of_pos it with
                          | Some v -> v
                          | None -> raise Inactive)
                        pr
                    with Inactive -> false
                  in
                  if not ok then raise Inactive)
                preds
            with
            | () -> true
            | exception Inactive -> false)
  in
  let sem =
    {
      K.iter_extents = p.p_iter_extents;
      dst_slot_pos = p.p_dst_slot_pos;
      src_slot_pos = p.p_src_slot_pos;
      issue_cycles = issue_cycles_prepared p sched;
      latency_cycles = intr.Intrinsic.latency_cycles;
    }
  in
  let timing = timing_prepared p sched in
  {
    K.name = p.p_name;
    outer_extents;
    level_of;
    sem;
    loads;
    store;
    predicate;
    timing;
    init = op.Operator.init;
    post_scale = op.Operator.post_scale;
  }

let lower (accel : Accelerator.t) (m : Mapping.t) (sched : Schedule.t) =
  lower_prepared (prepare accel m) sched

let emit_pseudo accel m sched =
  let k = lower accel m sched in
  let matching = m.Mapping.matching in
  let op = matching.Matching.view.Mac_view.op in
  let intr = matching.Matching.intr in
  let buf = Buffer.create 1024 in
  let dims = Schedule.dims m in
  Buffer.add_string buf
    (Printf.sprintf "// %s lowered to %s on %s\n" op.Operator.name
       intr.Intrinsic.name (Accelerator.primary_intrinsic accel).Intrinsic.name);
  Buffer.add_string buf
    (Printf.sprintf "// compute mapping: %s\n" (Mapping.describe m));
  Buffer.add_string buf
    (Printf.sprintf "// schedule: %s\n" (Schedule.describe m sched));
  List.iter
    (fun om ->
      Buffer.add_string buf
        (Printf.sprintf "// %s\n"
           (String.concat "; "
              (String.split_on_char '\n' (Memory_map.to_string om)))))
    (Memory_map.of_mapping m);
  List.iteri
    (fun i (d : Schedule.dim) ->
      let s = sched.Schedule.splits.(i) in
      Buffer.add_string buf
        (Printf.sprintf "%s %s in [0, %d)  // block=%d subcore=%d serial=%d\n"
           (if d.Schedule.parallelizable then "parallel_for" else "for")
           d.Schedule.name d.Schedule.extent s.Schedule.block
           s.Schedule.subcore s.Schedule.serial))
    dims;
  List.iter
    (fun (l : K.load) ->
      Buffer.add_string buf
        (Printf.sprintf "  load_matrix_sync(%s_frag, shared_%s, ...)  // %d B\n"
           l.K.operand l.K.operand l.K.bytes_per_tile))
    k.K.loads;
  Buffer.add_string buf
    (Printf.sprintf "  %s(Dst_frag, %s)\n" intr.Intrinsic.name
       (String.concat ", "
          (List.map (fun (l : K.load) -> l.K.operand ^ "_frag") k.K.loads)));
  Buffer.add_string buf "  store_matrix_sync(global_out, Dst_frag, ...)\n";
  Buffer.contents buf
