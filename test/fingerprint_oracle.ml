(* The fingerprint renderer as it stood before the allocation-lean
   rewrite of [Amos_service.Fingerprint], kept verbatim as the oracle:
   the test suites assert that every key, op key and rendering the
   production renderer produces is byte-identical to this one.  Keys
   persist in plan files, the journal, the observation log and the fleet
   ring, so the two must never drift. *)

open Amos
open Amos_ir

type budget = Amos_service.Fingerprint.budget = {
  population : int;
  generations : int;
  measure_top : int;
  seed : int;
}

(* Iterations are rendered by position in the operator's (canonical)
   iteration list: the globally unique [Iter.id]s change every time an
   operator is constructed, and names are cosmetic.  Position plus extent
   plus kind is exactly the structural identity the tuner sees. *)
let iter_tag positions (it : Iter.t) =
  match List.assoc_opt it.Iter.id positions with
  | Some i -> Printf.sprintf "i%d" i
  | None -> "i?"

let affine positions (a : Affine.t) =
  let terms =
    List.map
      (fun it -> Printf.sprintf "%d*%s" (Affine.coeff a it) (iter_tag positions it))
      (Affine.iters a)
  in
  String.concat "+" (terms @ [ string_of_int (Affine.constant_part a) ])

let dtype = function
  | Tensor_decl.F16 -> "f16"
  | Tensor_decl.F32 -> "f32"
  | Tensor_decl.I8 -> "i8"
  | Tensor_decl.I32 -> "i32"

let access positions (a : Operator.access) =
  Printf.sprintf "%s[%s](%s)"
    (dtype a.Operator.tensor.Tensor_decl.dtype)
    (String.concat "," (List.map string_of_int a.Operator.tensor.Tensor_decl.shape))
    (String.concat ";" (List.map (affine positions) a.Operator.index))

let arith = function
  | Operator.Mul_add -> "mul_add"
  | Operator.Add_acc -> "add_acc"
  | Operator.Max_acc -> "max_acc"
  | Operator.Sq_diff_acc -> "sq_diff_acc"

let predicate positions = function
  | Predicate.Nonneg a -> Printf.sprintf "nonneg(%s)" (affine positions a)
  | Predicate.Divisible (a, d) ->
      Printf.sprintf "div(%s,%d)" (affine positions a) d

let operator (op : Operator.t) =
  let positions = List.mapi (fun i (it : Iter.t) -> (it.Iter.id, i)) op.Operator.iters in
  let b = Buffer.create 256 in
  List.iter
    (fun (it : Iter.t) ->
      Buffer.add_string b
        (Printf.sprintf "iter %d%s;" it.Iter.extent
           (if Iter.is_reduction it then "r" else "s")))
    op.Operator.iters;
  Buffer.add_string b (Printf.sprintf "arith %s;" (arith op.Operator.arith));
  Buffer.add_string b (Printf.sprintf "out %s;" (access positions op.Operator.output));
  List.iter
    (fun a -> Buffer.add_string b (Printf.sprintf "in %s;" (access positions a)))
    op.Operator.inputs;
  List.iter
    (fun p -> Buffer.add_string b (Printf.sprintf "pred %s;" (predicate positions p)))
    op.Operator.preds;
  Buffer.add_string b
    (Printf.sprintf "init %h;post %h" op.Operator.init op.Operator.post_scale);
  Buffer.contents b

(* The intrinsic name alone is not enough for custom (DSL-defined)
   intrinsics, so the compute abstraction's scalar statement is rendered
   structurally as well. *)
let intrinsic (intr : Intrinsic.t) =
  let c = intr.Intrinsic.compute in
  let positions =
    List.mapi (fun i (it : Iter.t) -> (it.Iter.id, i)) c.Compute_abs.iters
  in
  let operand (o : Compute_abs.operand) =
    String.concat "," (List.map (iter_tag positions) o.Compute_abs.slots)
  in
  Printf.sprintf "%s{%s|dst %s|%s|%s->%s|%h,%h}" intr.Intrinsic.name
    (String.concat ","
       (List.map
          (fun (it : Iter.t) ->
            Printf.sprintf "%d%s" it.Iter.extent
              (if Iter.is_reduction it then "r" else "s"))
          c.Compute_abs.iters))
    (operand c.Compute_abs.dst)
    (String.concat "|"
       (List.map (fun o -> "src " ^ operand o) c.Compute_abs.srcs))
    (dtype intr.Intrinsic.dtype)
    (dtype intr.Intrinsic.acc_dtype)
    intr.Intrinsic.issue_cycles intr.Intrinsic.latency_cycles

let accelerator (accel : Accelerator.t) =
  let c = accel.Accelerator.config in
  Printf.sprintf "%h|%d|%d|%d|%d|%h|%h|%h|%h|%d|%s"
    c.Spatial_sim.Machine_config.clock_ghz
    c.Spatial_sim.Machine_config.num_cores
    c.Spatial_sim.Machine_config.subcores_per_core
    c.Spatial_sim.Machine_config.shared_capacity_bytes
    c.Spatial_sim.Machine_config.reg_capacity_elems
    c.Spatial_sim.Machine_config.global_bandwidth_gbs
    c.Spatial_sim.Machine_config.shared_bandwidth_gbs
    c.Spatial_sim.Machine_config.launch_overhead_us
    c.Spatial_sim.Machine_config.scalar_flops
    c.Spatial_sim.Machine_config.max_blocks_per_core
    (String.concat "&" (List.map intrinsic accel.Accelerator.intrinsics))

let key ~accel ~op ~budget =
  let canonical =
    Printf.sprintf "amos-plan-v1\nop %s\naccel %s\nbudget %d %d %d %d\n"
      (operator op) (accelerator accel) budget.population budget.generations
      budget.measure_top budget.seed
  in
  Digest.to_hex (Digest.string canonical)

(* the accelerator-independent slice of [key]: what migration matches on *)
let op_key ~op ~budget =
  let canonical =
    Printf.sprintf "amos-plan-op-v1\nop %s\nbudget %d %d %d %d\n" (operator op)
      budget.population budget.generations budget.measure_top budget.seed
  in
  Digest.to_hex (Digest.string canonical)
