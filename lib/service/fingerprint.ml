open Amos
open Amos_ir

type budget = {
  population : int;
  generations : int;
  measure_top : int;
  seed : int;
}

let default_budget =
  { population = 16; generations = 8; measure_top = 3; seed = 2022 }

(* Every rendering writes into one [Buffer]: integers go in as digits,
   and [Printf] is used only for the [%h] floats.  The text must stay
   byte-identical to the oracle renderer in the test tree
   (test/fingerprint_oracle.ml): keys persist in plan files, the
   journal, the observation log and the fleet ring. *)

(* decimal digits of [n], as [%d] prints them; the digits are taken on
   the non-positive side so [min_int] needs no special case *)
let add_int b n =
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))
  in
  if n < 0 then Buffer.add_char b '-';
  digits (if n > 0 then -n else n)

let add_sep b sep add = function
  | [] -> ()
  | x :: rest ->
      add x;
      List.iter
        (fun x ->
          Buffer.add_string b sep;
          add x)
        rest

let add_kind b (it : Iter.t) =
  Buffer.add_char b (if Iter.is_reduction it then 'r' else 's')

(* Iterations are rendered by position in the operator's (canonical)
   iteration list: the globally unique [Iter.id]s change every time an
   operator is constructed, and names are cosmetic.  Position plus extent
   plus kind is exactly the structural identity the tuner sees.  [ids]
   holds the iteration ids in list order; the first match wins. *)
let ids_of iters =
  Array.of_list (List.map (fun (it : Iter.t) -> it.Iter.id) iters)

let add_tag b ids (it : Iter.t) =
  let rec find i =
    if i = Array.length ids then Buffer.add_string b "i?"
    else if ids.(i) = it.Iter.id then begin
      Buffer.add_char b 'i';
      add_int b i
    end
    else find (i + 1)
  in
  find 0

(* [Affine.t]'s terms are sorted by iteration id with one nonzero
   coefficient each: exactly [Affine.iters] paired with [Affine.coeff] *)
let add_affine b ids (a : Affine.t) =
  List.iter
    (fun (it, c) ->
      add_int b c;
      Buffer.add_char b '*';
      add_tag b ids it;
      Buffer.add_char b '+')
    a.Affine.terms;
  add_int b (Affine.constant_part a)

let dtype = function
  | Tensor_decl.F16 -> "f16"
  | Tensor_decl.F32 -> "f32"
  | Tensor_decl.I8 -> "i8"
  | Tensor_decl.I32 -> "i32"

let add_access b ids (a : Operator.access) =
  let t = a.Operator.tensor in
  Buffer.add_string b (dtype t.Tensor_decl.dtype);
  Buffer.add_char b '[';
  add_sep b "," (add_int b) t.Tensor_decl.shape;
  Buffer.add_string b "](";
  add_sep b ";" (add_affine b ids) a.Operator.index;
  Buffer.add_char b ')'

let arith = function
  | Operator.Mul_add -> "mul_add"
  | Operator.Add_acc -> "add_acc"
  | Operator.Max_acc -> "max_acc"
  | Operator.Sq_diff_acc -> "sq_diff_acc"

let add_predicate b ids = function
  | Predicate.Nonneg a ->
      Buffer.add_string b "nonneg(";
      add_affine b ids a;
      Buffer.add_char b ')'
  | Predicate.Divisible (a, d) ->
      Buffer.add_string b "div(";
      add_affine b ids a;
      Buffer.add_char b ',';
      add_int b d;
      Buffer.add_char b ')'

let add_operator b (op : Operator.t) =
  let ids = ids_of op.Operator.iters in
  List.iter
    (fun (it : Iter.t) ->
      Buffer.add_string b "iter ";
      add_int b it.Iter.extent;
      add_kind b it;
      Buffer.add_char b ';')
    op.Operator.iters;
  Buffer.add_string b "arith ";
  Buffer.add_string b (arith op.Operator.arith);
  Buffer.add_string b ";out ";
  add_access b ids op.Operator.output;
  Buffer.add_char b ';';
  List.iter
    (fun a ->
      Buffer.add_string b "in ";
      add_access b ids a;
      Buffer.add_char b ';')
    op.Operator.inputs;
  List.iter
    (fun p ->
      Buffer.add_string b "pred ";
      add_predicate b ids p;
      Buffer.add_char b ';')
    op.Operator.preds;
  Printf.bprintf b "init %h;post %h" op.Operator.init op.Operator.post_scale

let operator op =
  let b = Buffer.create 256 in
  add_operator b op;
  Buffer.contents b

(* The intrinsic name alone is not enough for custom (DSL-defined)
   intrinsics, so the compute abstraction's scalar statement is rendered
   structurally as well. *)
let add_intrinsic b (intr : Intrinsic.t) =
  let c = intr.Intrinsic.compute in
  let ids = ids_of c.Compute_abs.iters in
  let operand (o : Compute_abs.operand) =
    add_sep b "," (add_tag b ids) o.Compute_abs.slots
  in
  Buffer.add_string b intr.Intrinsic.name;
  Buffer.add_char b '{';
  add_sep b ","
    (fun (it : Iter.t) ->
      add_int b it.Iter.extent;
      add_kind b it)
    c.Compute_abs.iters;
  Buffer.add_string b "|dst ";
  operand c.Compute_abs.dst;
  Buffer.add_char b '|';
  add_sep b "|"
    (fun o ->
      Buffer.add_string b "src ";
      operand o)
    c.Compute_abs.srcs;
  Buffer.add_char b '|';
  Buffer.add_string b (dtype intr.Intrinsic.dtype);
  Buffer.add_string b "->";
  Buffer.add_string b (dtype intr.Intrinsic.acc_dtype);
  Printf.bprintf b "|%h,%h}" intr.Intrinsic.issue_cycles
    intr.Intrinsic.latency_cycles

let render_accelerator (accel : Accelerator.t) =
  let c = accel.Accelerator.config in
  let b = Buffer.create 512 in
  let int n =
    Buffer.add_char b '|';
    add_int b n
  in
  let float x = Printf.bprintf b "|%h" x in
  Printf.bprintf b "%h" c.Spatial_sim.Machine_config.clock_ghz;
  int c.Spatial_sim.Machine_config.num_cores;
  int c.Spatial_sim.Machine_config.subcores_per_core;
  int c.Spatial_sim.Machine_config.shared_capacity_bytes;
  int c.Spatial_sim.Machine_config.reg_capacity_elems;
  float c.Spatial_sim.Machine_config.global_bandwidth_gbs;
  float c.Spatial_sim.Machine_config.shared_bandwidth_gbs;
  float c.Spatial_sim.Machine_config.launch_overhead_us;
  float c.Spatial_sim.Machine_config.scalar_flops;
  int c.Spatial_sim.Machine_config.max_blocks_per_core;
  Buffer.add_char b '|';
  add_sep b "&" (add_intrinsic b) accel.Accelerator.intrinsics;
  Buffer.contents b

(* The accelerator rendering is memoized per accelerator value: callers
   that keep one value (a batch compile, the daemon's shared presets)
   render it once.  Values are immutable, so a physically equal value
   renders the same text.  The memo is an immutable list behind an
   [Atomic], so the daemon's tuner domains read it without a lock; a
   racing insert may drop another's entry, which only costs a re-render.
   It holds the most recently inserted [accel_memo_capacity] values. *)
let accel_memo_capacity = 16
let accel_memo : (Accelerator.t * string) list Atomic.t = Atomic.make []

let accelerator accel =
  let memo = Atomic.get accel_memo in
  match List.assq_opt accel memo with
  | Some text -> text
  | None ->
      let text = render_accelerator accel in
      Atomic.set accel_memo
        ((accel, text)
        :: List.filteri (fun i _ -> i < accel_memo_capacity - 1) memo);
      text

let add_budget b budget =
  Buffer.add_string b "budget ";
  add_int b budget.population;
  Buffer.add_char b ' ';
  add_int b budget.generations;
  Buffer.add_char b ' ';
  add_int b budget.measure_top;
  Buffer.add_char b ' ';
  add_int b budget.seed;
  Buffer.add_char b '\n'

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

let key ~accel ~op ~budget =
  let b = Buffer.create 1024 in
  Buffer.add_string b "amos-plan-v1\nop ";
  add_operator b op;
  Buffer.add_string b "\naccel ";
  Buffer.add_string b (accelerator accel);
  Buffer.add_char b '\n';
  add_budget b budget;
  digest b

(* the accelerator-independent slice of [key]: what migration matches on *)
let op_key ~op ~budget =
  let b = Buffer.create 512 in
  Buffer.add_string b "amos-plan-op-v1\nop ";
  add_operator b op;
  Buffer.add_char b '\n';
  add_budget b budget;
  digest b
