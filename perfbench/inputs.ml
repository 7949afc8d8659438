(* Seeded inputs: accelerators, the operator pool the daemon workloads
   draw from, Zipf request ranks, never-seen fresh shapes — plus the plan
   helpers every workload uses to compare and price plans. *)

open Amos
module Rng = Amos_tensor.Rng
module Operator = Amos_ir.Operator
module Dsl = Amos_ir.Dsl
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Batch_compile = Amos_service.Batch_compile
module Networks = Amos_workloads.Networks
module Suites = Amos_workloads.Suites
module Ops = Amos_workloads.Ops
module Protocol = Amos_server.Protocol

let accel_names = [ "a100"; "avx512" ]

let accel_of name =
  match Accelerator.by_name name with
  | Some a -> a
  | None -> failwith ("unknown accelerator " ^ name)

(* The tuning budget is the daemon's default; the workload seed only
   namespaces the fingerprints (the tuner's search streams derive from
   the mappings, so plans do not depend on it). *)
let budget seed = { Fingerprint.default_budget with Fingerprint.seed = 1000 + seed }

(* --- plans ---------------------------------------------------------- *)

let plan_text = function
  | Plan_cache.Scalar -> "scalar"
  | Plan_cache.Spatial (m, s) -> Plan_io.save m s

let wire_text = function
  | Protocol.Wire_scalar -> "scalar"
  | Protocol.Wire_spatial text -> text

(* simulated latency of the chosen plan, and of the PyTorch-like library
   baseline on the same operator: their ratio is the Fig 6 quantity *)
let plan_seconds accel op = function
  | Plan_cache.Spatial (m, s) ->
      Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
        (Codegen.lower accel m s)
  | Plan_cache.Scalar -> Batch_compile.scalar_seconds accel op

let library_seconds accel op =
  Amos_baselines.Library_backend.op_seconds ~rng:(Rng.create 0) accel op

let speedup accel op v = library_seconds accel op /. plan_seconds accel op v

(* Functional simulation against the reference interpreter of [count]
   seeded picks among the eight smallest spatial plans (simulation cost
   grows with the operator), outside any timing. *)
let verify_small ~count rng plans =
  let small =
    List.filter_map
      (fun (accel, op, v) ->
        match v with
        | Plan_cache.Spatial (m, s) -> Some (Operator.domain_size op, accel, op, m, s)
        | Plan_cache.Scalar -> None)
      plans
    |> List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b)
    |> List.filteri (fun i _ -> i < 8)
  in
  for _ = 1 to count do
    let _, accel, op, m, s = Rng.pick rng small in
    Util.attempt
      (Compiler.verify ~rng:(Rng.create 1) accel m s)
      (lazy (op.Operator.name ^ ": plan fails functional simulation"))
  done

(* --- daemon operators ----------------------------------------------- *)

(* An operator as the daemon sees it: DSL text on the wire, parsed back
   exactly as the daemon parses it, fingerprinted on that parse. *)
type item = {
  accel_name : string;
  accel : Accelerator.t;
  text : string;
  op : Operator.t;
  fp : string;
}

let item ~budget accel_name op =
  let accel = accel_of accel_name in
  let text = Dsl.print op in
  match Dsl.parse ~name:"wire-op" text with
  | Ok op -> Some { accel_name; accel; text; op; fp = Fingerprint.key ~accel ~op ~budget }
  | Error _ -> None

(* Every distinct operator of the evaluation suite and of the six
   networks' tensor layers, at batch 1 and 16, on both presets, in a
   fixed order, each with its class: the preset and the suite kind or
   network it comes from. *)
let pool ~budget =
  let seen = Hashtbl.create 1024 in
  List.concat_map
    (fun accel_name ->
      List.concat_map
        (fun batch ->
          List.map
            (fun (kind, op) -> (Ops.kind_name kind, op))
            (Suites.operator_suite ~batch)
          @ List.concat_map
              (fun net ->
                List.map (fun (op, _) -> (net.Networks.name, op)) (Networks.tensor_ops net))
              (Networks.all ~batch))
        [ 1; 16 ]
      |> List.filter_map (fun (source, op) ->
             match item ~budget accel_name op with
             | Some it when not (Hashtbl.mem seen it.fp) ->
                 Hashtbl.add seen it.fp ();
                 Some (accel_name ^ "/" ^ source, it)
             | Some _ | None -> None))
    accel_names

(* [n] distinct items drawn class by class: the members of each class in
   a seeded order, then one per class in turn, in the pool's class order.
   The result order is also the Zipf rank (first = most requested), so
   every seed draws the same mix of classes at every rank, and only which
   configuration of a class appears varies — lookup and tuning costs
   follow the operator's structure, which the class fixes. *)
let stratified rng n pool =
  let classes = ref [] in
  List.iter
    (fun (cls, it) ->
      match List.assoc_opt cls !classes with
      | Some members -> members := it :: !members
      | None -> classes := (cls, ref [ it ]) :: !classes)
    pool;
  let queues =
    List.rev_map
      (fun (_, members) ->
        let a = Array.of_list (List.rev !members) in
        Rng.shuffle rng a;
        Queue.of_seq (Array.to_seq a))
      !classes
  in
  let out = ref [] and taken = ref 0 in
  while !taken < n && List.exists (fun q -> not (Queue.is_empty q)) queues do
    List.iter
      (fun q ->
        if !taken < n && not (Queue.is_empty q) then begin
          out := Queue.pop q :: !out;
          incr taken
        end)
      queues
  done;
  List.rev !out

(* Zipf(1) over ranks [0, n): P(r) proportional to 1 / (r + 1) *)
let zipf n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Rng.float rng total in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    min (n - 1) (search 0 (n - 1))

(* Never-seen operators for fresh tunes.  The kinds and presets rotate
   in a fixed pattern (GEMM, conv2d; a100, avx512) and only the extents
   are drawn, so every run tunes the same mix of operator structures:
   tuning time follows the structure far more than the extents. *)
let fresh ~budget ~avoid rng n =
  let seen = Hashtbl.copy avoid in
  let dim lo hi step = lo + (step * Rng.int rng (((hi - lo) / step) + 1)) in
  let rec draw j =
    let accel_name = List.nth accel_names (j / 2 mod 2) in
    let op =
      if j mod 2 = 0 then
        Ops.gemm ~m:(dim 16 512 16) ~n:(dim 16 512 16) ~k:(dim 16 512 16) ()
      else
        Ops.conv2d ~n:(dim 1 8 1) ~c:(dim 8 256 8) ~k:(dim 8 256 8)
          ~p:(dim 7 28 1) ~q:(dim 7 28 1) ~r:(dim 1 3 2) ~s:(dim 1 3 2) ()
    in
    match item ~budget accel_name op with
    | Some it when not (Hashtbl.mem seen it.fp) ->
        Hashtbl.add seen it.fp ();
        it
    | Some _ | None -> draw j
  in
  let out = ref [] in
  for j = 0 to n - 1 do
    out := draw j :: !out
  done;
  List.rev !out
