open Amos_ir
open Amos

let column (op : Operator.t) it =
  let accs = op.Operator.output :: op.Operator.inputs in
  List.map (fun acc -> Operator.uses_iter acc it) accs

let supported (op : Operator.t) =
  match (op.Operator.arith, op.Operator.inputs) with
  | Operator.Mul_add, [ _; _ ] ->
      (not
         (List.exists
            (fun it -> column op it = [ true; true; true ])
            op.Operator.iters))
      && List.length op.Operator.iters <= 9
  | _ -> false

(* Unsupported operators run generic fallback kernels: poor access
   patterns for exotic layouts keep them well below the bandwidth
   roofline, and the eager-mode framework adds per-op dispatch cost. *)
let fallback_seconds accel op =
  Spatial_sim.Scalar_backend.estimate_seconds ~efficiency:0.35
    ~memory_efficiency:0.55 ~dispatch_overhead_us:8. accel.Accelerator.config
    op

(* The library ships a handful of hand-written kernels per operator and a
   heuristic picker (like cuDNN's algorithm selection): the im2col mapping
   with a few canned schedules, no per-shape search. *)
let canned_schedules rng m =
  Schedule.default m :: List.init 3 (fun _ -> Schedule.random rng m)

let op_seconds ~rng accel op =
  if not (supported op) then fallback_seconds accel op
  else
    match Fixed_mappings.im2col op (Accelerator.primary_intrinsic accel) with
    | None -> fallback_seconds accel op
    | Some matching ->
        let m = Mapping.make matching in
        let best =
          List.fold_left
            (fun acc sched ->
              let k = Codegen.lower accel m sched in
              Float.min acc
                (Spatial_sim.Machine.estimate_seconds accel.Accelerator.config k))
            infinity (canned_schedules rng m)
        in
        if best < infinity then best else fallback_seconds accel op

let network_seconds ~rng accel net =
  (Compiler.price_network accel (fun op -> (false, op_seconds ~rng accel op))
     net)
    .Compiler.network_seconds
