(** The analytical performance model of Sec 5.3:

    {[ Perf = L_{M-1}
       L_l = (prod S_l) * max(L_{l-1}, R_{l-1}, W_{l-1})   (l > 0)
       L_0 = (prod S_0) * latency_of_intrinsic
       R_l = DataIn_l / in_bw_l      W_l = DataOut_l / out_bw_l ]}

    Level 0 is the intrinsic, level 1 the sub-core (register traffic),
    level 2 the core (shared-buffer staging), level 3 the device.  This is
    deliberately coarser than {!Spatial_sim.Machine.estimate} (no wave
    quantization, occupancy limits, launch overhead, or coalescing
    effects): the tuner screens candidates with this model and measures
    survivors on the simulator, mirroring the paper's flow; the gap
    between the two is what Fig 5 quantifies. *)

type levels = {
  l0 : float;  (** intrinsic cycles *)
  l1 : float;  (** sub-core cycles *)
  l2 : float;  (** core cycles *)
  l3 : float;  (** device cycles *)
}

val predict :
  Spatial_sim.Machine_config.t -> Spatial_sim.Kernel.t -> levels

val predict_seconds :
  Spatial_sim.Machine_config.t -> Spatial_sim.Kernel.t -> float
(** [infinity] when the kernel violates capacity constraints. *)

type ctx
(** Per-config constants (clock, per-cycle bandwidths) hoisted out of the
    per-kernel evaluation.  Predictions through a ctx are bit-identical to
    the plain entry points — the derived floats are computed by the exact
    same expressions, once. *)

val context : Spatial_sim.Machine_config.t -> ctx

val predict_summary : ctx -> Spatial_sim.Kernel.summary -> levels
(** The model proper: every other entry point is [predict_summary] of
    {!Spatial_sim.Kernel.summarize}.  Feed it
    {!Codegen.summarize_prepared} output to screen a schedule without
    building the kernel at all. *)

val predict_seconds_summary : ctx -> Spatial_sim.Kernel.summary -> float
(** [infinity] when the summary violates capacity constraints. *)
