module K = Spatial_sim.Kernel
module Mc = Spatial_sim.Machine_config

type levels = {
  l0 : float;
  l1 : float;
  l2 : float;
  l3 : float;
}

(* Per-config constants hoisted out of the per-kernel evaluation.  Every
   derived float below is the exact expression the non-ctx path computed
   inline (same association order), so ctx-based predictions are
   bit-identical. *)
type ctx = {
  cfg : Mc.t;
  clock_hz : float;
  shared_bw_cycle : float;  (* shared_bandwidth_gbs * 1e9 / clock_hz *)
  global_bw_cycle : float;  (* global_bandwidth_gbs * 1e9 / clock_hz *)
  num_cores_f : float;
}

let context (cfg : Mc.t) =
  let clock_hz = cfg.Mc.clock_ghz *. 1e9 in
  {
    cfg;
    clock_hz;
    shared_bw_cycle = cfg.Mc.shared_bandwidth_gbs *. 1e9 /. clock_hz;
    global_bw_cycle = cfg.Mc.global_bandwidth_gbs *. 1e9 /. clock_hz;
    num_cores_f = float_of_int cfg.Mc.num_cores;
  }

(* The model reads only a kernel's {!K.summary}; both the full-kernel
   entry points and the allocation-lean [Codegen.summarize_prepared] path
   funnel through [predict_summary], so the two are bit-identical by
   construction. *)
let predict_summary ctx (s : K.summary) =
  let cfg = ctx.cfg in
  let t = s.K.s_timing in
  (* level 0: the intrinsic *)
  let l0 = s.K.s_issue_cycles in
  (* level 1: sub-core; S_1 = serial calls per sub-core *)
  let subcores =
    float_of_int (Int.min s.K.s_subcore_parallelism cfg.Mc.subcores_per_core)
  in
  let s1 =
    float_of_int s.K.s_serial_steps
    *. (float_of_int s.K.s_subcore_parallelism /. subcores)
  in
  let r0 = t.K.reg_load_bytes_per_call /. (ctx.shared_bw_cycle /. subcores) in
  let w0 = t.K.reg_store_bytes_per_call /. (ctx.shared_bw_cycle /. subcores) in
  let l1 = s1 *. Float.max l0 (Float.max r0 w0) in
  (* level 2: core; S_2 = 1, staging traffic against the core's share of
     device bandwidth *)
  let cores_busy = Float.min (float_of_int s.K.s_blocks) ctx.num_cores_f in
  let global_bw_cycle_core = ctx.global_bw_cycle /. cores_busy in
  let r1 = t.K.global_load_bytes_per_block /. global_bw_cycle_core in
  let w1 = t.K.global_store_bytes_per_block /. global_bw_cycle_core in
  let l2 = Float.max l1 (Float.max r1 w1) in
  (* level 3: device; S_3 = blocks per core (smooth, no wave ceil) *)
  let s3 = float_of_int s.K.s_blocks /. ctx.num_cores_f in
  let l3 = Float.max 1.0 s3 *. l2 in
  { l0; l1; l2; l3 }

let predict cfg k = predict_summary (context cfg) (K.summarize k)

let predict_seconds_summary ctx (s : K.summary) =
  let cfg = ctx.cfg in
  let cap_ok =
    s.K.s_max_load_elems <= cfg.Mc.reg_capacity_elems
    && s.K.s_timing.K.shared_bytes_per_block <= cfg.Mc.shared_capacity_bytes
  in
  if not cap_ok then infinity
  else
    let { l3; _ } = predict_summary ctx s in
    l3 /. ctx.clock_hz

let predict_seconds cfg k =
  predict_seconds_summary (context cfg) (K.summarize k)
