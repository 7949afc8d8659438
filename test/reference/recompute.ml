(* The tuner's evaluation path with nothing precomputed, shared or
   memoized: schedules drawn from lists over [Schedule.dims], every
   candidate lowered in full for the model and again for the simulator,
   and Algorithm 1 run on each candidate alone.  [Amos.Explore] and
   [Amos.Mapping_gen] must return exactly what this returns — the same
   mappings, schedules and floats — while doing far less work; the test
   suite and the tuner_throughput bench compare the two result for
   result.  Only the draws, the lowering and the validation live here:
   survivor selection and merging run through [Explore.tune_units]. *)

open Amos
open Amos_ir
module Rng = Amos_tensor.Rng

(* --- schedules ------------------------------------------------------- *)

let ceil_div a b = (a + b - 1) / b
let serial_split extent = { Schedule.block = 1; subcore = 1; serial = extent }

let full_block_split extent =
  { Schedule.block = extent; subcore = 1; serial = 1 }

let default m =
  let ds = Schedule.dims m in
  {
    Schedule.splits =
      Array.of_list
        (List.map
           (fun d ->
             if d.Schedule.parallelizable then
               full_block_split d.Schedule.extent
             else serial_split d.Schedule.extent)
           ds);
    stage_depth = 2;
    unroll = 4;
    vectorize = true;
  }

let pick_in rng a = a.(Rng.int rng (Array.length a))

let random_split rng d =
  if not d.Schedule.parallelizable then serial_split d.Schedule.extent
  else
    let block = pick_in rng (Schedule.block_choices d.Schedule.extent) in
    let rest = ceil_div d.Schedule.extent block in
    let subcore = pick_in rng (Schedule.subcore_choices rest) in
    let serial = ceil_div rest subcore in
    { Schedule.block; subcore; serial }

let random rng m =
  let ds = Schedule.dims m in
  {
    Schedule.splits = Array.of_list (List.map (random_split rng) ds);
    stage_depth = 1 + Rng.int rng 4;
    unroll = Rng.pick rng [ 1; 2; 4; 8 ];
    vectorize = Rng.bool rng;
  }

let mutate rng m t =
  let ds = Array.of_list (Schedule.dims m) in
  let t = { t with Schedule.splits = Array.copy t.Schedule.splits } in
  match Rng.int rng 4 with
  | 0 when Array.length ds > 0 ->
      let i = Rng.int rng (Array.length ds) in
      t.Schedule.splits.(i) <- random_split rng ds.(i);
      t
  | 1 -> { t with Schedule.stage_depth = 1 + Rng.int rng 4 }
  | 2 -> { t with Schedule.unroll = Rng.pick rng [ 1; 2; 4; 8 ] }
  | _ -> { t with Schedule.vectorize = Rng.bool rng }

(* --- evaluation: a full lowering per call ------------------------------ *)

let predict accel mapping schedule =
  let k = Codegen.lower accel mapping schedule in
  Perf_model.predict_seconds accel.Accelerator.config k

let measure accel mapping schedule =
  let k = Codegen.lower accel mapping schedule in
  Spatial_sim.Machine.estimate_seconds accel.Accelerator.config k

(* --- the genetic search and its two work units ------------------------- *)

let schedule_search ~population ~generations ~rng ~accel mapping =
  let score sched = (sched, predict accel mapping sched) in
  let initial =
    score (default mapping)
    :: List.init population (fun _ -> score (random rng mapping))
  in
  let sorted l = List.sort (fun (_, a) (_, b) -> Float.compare a b) l in
  let rec go gen pop =
    if gen = 0 then sorted pop
    else begin
      let ranked = sorted pop in
      let survivors = List.filteri (fun i _ -> i < max 2 (population / 2)) ranked in
      let parents = Array.of_list (List.map fst survivors) in
      let children =
        List.init population (fun _ ->
            let a = parents.(Rng.int rng (Array.length parents)) in
            let sched =
              if Rng.bool rng then
                Schedule.crossover rng a
                  parents.(Rng.int rng (Array.length parents))
              else mutate rng mapping a
            in
            score sched)
      in
      go (gen - 1) (survivors @ children)
    end
  in
  go generations initial

let screen_mapping ~accel mapping =
  let rng = Rng.create (Explore.mapping_seed mapping) in
  let quick = default mapping :: List.init 6 (fun _ -> random rng mapping) in
  let best =
    List.fold_left
      (fun acc sched -> Float.min acc (predict accel mapping sched))
      infinity quick
  in
  (best, List.length quick)

let search_mapping ~population ~generations ~measure_top ~accel mapping =
  let rng = Rng.create (Explore.mapping_seed mapping) in
  let ranked = schedule_search ~population ~generations ~rng ~accel mapping in
  let plans =
    List.map
      (fun (schedule, predicted) ->
        {
          Explore.candidate = { Explore.mapping; schedule };
          predicted;
          measured = measure accel mapping schedule;
        })
      (List.filteri (fun i _ -> i < measure_top) ranked)
  in
  (plans, population * (generations + 1))

let sequential =
  {
    Explore.workers = 1;
    map =
      (fun f units ->
        Array.map
          (fun u -> match f u with v -> Ok v | exception e -> Error e)
          units);
  }

(* [Explore.tune] with no seeds and no screen model *)
let tune ?(population = 16) ?(generations = 8) ?(measure_top = 3) ~accel
    ~mappings () =
  if mappings = [] then invalid_arg "Explore.tune: no mappings";
  Explore.tune_units sequential
    ~must_keep:(fun _ -> false)
    ~cut:None ~screen:(screen_mapping ~accel)
    ~search:(fun m ~score:_ ~best_score:_ ->
      search_mapping ~population ~generations ~measure_top ~accel m)
    mappings

(* --- Algorithm 1 on each candidate alone -------------------------------- *)

(* [Mapping_gen.generate_op], with no memo and no workspace *)
let generate_op ?(filter = true) op intr =
  match Mac_view.of_operator op with
  | None -> []
  | Some view ->
      let results = ref [] in
      List.iter
        (fun src_perm ->
          let cands = Mapping_gen.candidates view intr ~src_perm in
          let cands_arr = Array.of_list cands in
          let n = Array.length cands_arr in
          let must_use =
            List.filter
              (fun k ->
                List.exists (fun (_, ks) -> List.exists (Iter.equal k) ks) cands)
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
                  Matching.create ~view ~intr ~src_perm
                    ~assign:(Array.copy assign)
                in
                if Matching.validate m && ((not filter) || Matching.feasible m)
                then
                  results := m :: !results
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
        (Mapping_gen.src_perms view intr);
      List.rev !results
