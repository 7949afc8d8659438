open Amos

type template =
  | Im2col
  | Fuse_hw
  | Ansor

let template_matching template op intr =
  match template with
  | Im2col -> Fixed_mappings.im2col op intr
  | Fuse_hw -> Fixed_mappings.fuse_hw op intr
  | Ansor -> None

let extent_ok ~require_extent_mult (m : Mapping.t) =
  match require_extent_mult with
  | None -> true
  | Some mult ->
      Array.for_all
        (fun (fd : Mapping.fused_dim) ->
          fd.Mapping.sw_iters = [] || fd.Mapping.fused_extent mod mult = 0)
        m.Mapping.fused

let scalar ?(efficiency = 0.35) ?(memory_efficiency = 0.7) accel op =
  Spatial_sim.Scalar_backend.estimate_seconds ~efficiency ~memory_efficiency
    accel.Accelerator.config op

let op_seconds ?require_extent_mult ~template accel op =
  match template with
  | Ansor -> scalar ~efficiency:0.55 ~memory_efficiency:0.9 accel op
  | Im2col | Fuse_hw -> (
      match
        template_matching template op (Accelerator.primary_intrinsic accel)
      with
      | None -> scalar accel op
      | Some matching ->
          let m = Mapping.make matching in
          if not (extent_ok ~require_extent_mult m) then scalar accel op
          else
            let result =
              Explore.tune ~population:16 ~generations:8 ~measure_top:4
                ~accel ~mappings:[ m ] ()
            in
            let t = result.Explore.best.Explore.measured in
            if t < infinity then t else scalar accel op)

let network_seconds ?require_extent_mult ~template accel net =
  (Compiler.price_network accel
     (fun op -> (false, op_seconds ?require_extent_mult ~template accel op))
     net)
    .Compiler.network_seconds
