open Amos
open Amos_ir

type outcome = {
  seeds : Explore.candidate list;
  source_accel : string;
  source_fingerprint : string;
  direct : bool;
}

let provenance o =
  {
    Plan_io.source_accel = o.source_accel;
    source_fingerprint = o.source_fingerprint;
  }

(* --- plan-text inspection ------------------------------------------- *)

let split_ws line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let field text key =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         match split_ws l with
         | k :: rest when k = key -> Some rest
         | _ -> None)

(* the source plan's compute mapping as (sw iteration name, source
   intrinsic iteration name) pairs — the structure we try to preserve *)
let assign_pairs text =
  match field text "assign" with
  | None -> []
  | Some assigns ->
      List.filter_map
        (fun s ->
          match String.split_on_char '=' s with
          | [ sw; k ] -> Some (sw, k)
          | _ -> None)
        assigns

(* --- structural transfer -------------------------------------------- *)

(* How much of the source plan's mapping structure a target candidate
   preserves.  Three signals, strongest first: the same software
   iterations are mapped (vs left outer), software iterations grouped
   onto one intrinsic dimension at the source stay co-grouped at the
   target, and — when the sibling intrinsics share iteration names — the
   same-named dimension is chosen. *)
let score_candidate ~src_pairs ~sw_names (matching : Matching.t) =
  let mapped = Matching.mapped matching in
  let tgt_of sw =
    List.find_map
      (fun ((s : Iter.t), (k : Iter.t)) ->
        if s.Iter.name = sw then Some k.Iter.name else None)
      mapped
  in
  let src_of sw = List.assoc_opt sw src_pairs in
  let status =
    List.fold_left
      (fun acc sw ->
        match (src_of sw, tgt_of sw) with
        | None, None -> acc + 2
        | Some s, Some t -> acc + 2 + (if s = t then 1 else 0)
        | _ -> acc)
      0 sw_names
  in
  let rec pairs = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
  in
  let co f a b = match (f a, f b) with
    | Some x, Some y -> x = y
    | _ -> false
  in
  let grouping =
    List.fold_left
      (fun acc (a, b) ->
        if co src_of a b = co tgt_of a b then acc + 1 else acc)
      0
      (pairs sw_names)
  in
  status + grouping

(* Re-derive a schedule for a migrated mapping: target capacities demand
   fresh splits ([Schedule.default] computes them from the mapping the
   target produced), but the scalar knobs — staging depth, unroll,
   vectorization — transfer when they still validate. *)
let transfer_schedule plan_text mapping =
  let base = Schedule.default mapping in
  let int_knob key fallback =
    match field plan_text key with
    | Some [ v ] -> ( match int_of_string_opt v with Some i -> i | None -> fallback)
    | _ -> fallback
  in
  let vectorize =
    match field plan_text "vectorize" with
    | Some [ v ] -> ( match bool_of_string_opt v with Some b -> b | None -> base.Schedule.vectorize)
    | _ -> base.Schedule.vectorize
  in
  let carried =
    {
      base with
      Schedule.stage_depth = int_knob "stage" base.Schedule.stage_depth;
      unroll = int_knob "unroll" base.Schedule.unroll;
      vectorize;
    }
  in
  if Schedule.validate mapping carried then carried else base

let structural_seeds ~max_seeds ~target ~op ~plan_text =
  let src_pairs = assign_pairs plan_text in
  let sw_names =
    List.map (fun (it : Iter.t) -> it.Iter.name) op.Operator.iters
  in
  let candidates =
    List.concat_map
      (fun intr ->
        List.map
          (fun matching ->
            let mapping = Mapping.make matching in
            (score_candidate ~src_pairs ~sw_names matching, mapping))
          (Mapping_gen.generate_op op intr))
      target.Accelerator.intrinsics
  in
  let ranked =
    List.sort
      (fun (sa, ma) (sb, mb) ->
        match compare sb sa with
        | 0 -> compare (Mapping.describe ma) (Mapping.describe mb)
        | c -> c)
      candidates
  in
  List.filteri (fun i _ -> i < max_seeds) ranked
  |> List.map (fun (_, mapping) ->
         {
           Explore.mapping;
           schedule = transfer_schedule plan_text mapping;
         })

let migrate ?(max_seeds = 4) ~target ~op ~source_accel ~source_fingerprint
    ~plan_text () =
  (* direct path: a sibling accelerator exposing the same-named intrinsic
     (V100 and A100 both expose wmma) re-binds the plan wholesale —
     [Plan_io.load] re-runs Algorithm 1 and re-derives the physical
     tiling, so a successful load is already target-valid *)
  match Plan_io.load target op plan_text with
  | Some (mapping, schedule) ->
      {
        seeds = [ { Explore.mapping; schedule } ];
        source_accel;
        source_fingerprint;
        direct = true;
      }
  | None ->
      {
        seeds = structural_seeds ~max_seeds ~target ~op ~plan_text;
        source_accel;
        source_fingerprint;
        direct = false;
      }

let from_cache ?max_seeds cache ~accel ~op ~budget =
  let sources = Plan_cache.lookup_migratable cache ~accel ~op ~budget in
  List.find_map
    (fun (fp, source_accel, plan_text) ->
      let o =
        migrate ?max_seeds ~target:accel ~op ~source_accel
          ~source_fingerprint:fp ~plan_text ()
      in
      if o.seeds = [] then None else Some o)
    sources
