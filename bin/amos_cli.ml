(* Command-line interface to the AMOS compilation framework.

     amos_cli accels                    list accelerator presets
     amos_cli count  --accel a100       Table-6-style mapping counts
     amos_cli map    --accel a100 --layer C5
                                        enumerate + describe valid mappings
     amos_cli tune   --accel a100 --layer C5 --jobs 4 --cache-dir ~/.amos
                                        explore mappings x schedules
                                        (parallel, plan-cache backed)
     amos_cli tune   --accel ascend --migrate-from a100 ...
                                        warm-start tuning from a plan
                                        migrated off another accelerator
     amos_cli cache  stats|clear|warm|fsck
                                        manage the persistent tuning cache
     amos_cli model  fit|stats          fit / inspect the learned cost model
                                        from the recorded observation log
     amos_cli verify --accel toy --layer C5
                                        functional check vs the reference
     amos_cli abstraction --accel a100  print the hardware abstraction
     amos_cli serve  --socket /tmp/amosd.sock --cache-dir ~/.amos
                                        run the plan-serving daemon
     amos_cli client tune|lookup|migrate|compile|stats|health|shutdown
                                        talk to a running daemon *)

open Cmdliner
open Amos

let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let verbose_arg =
  let doc = "Log the compiler's per-operator decisions." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
module Ops = Amos_workloads.Ops
module Suites = Amos_workloads.Suites
module Resnet = Amos_workloads.Resnet
module Rng = Amos_tensor.Rng

(* one resolution shared with the daemon ([Amos_server.Server]), so a
   name on the command line and the same name in a wire request always
   mean the same machine *)
let accel_by_name name =
  match Accelerator.by_name name with
  | Some a -> a
  | None -> failwith ("unknown accelerator " ^ name ^ " (see `amos_cli accels`)")

let accel_arg =
  let doc = "Target accelerator: v100, a100, avx512, mali, ascend, axpy, gemv, conv, toy." in
  Arg.(value & opt string "a100" & info [ "accel" ] ~docv:"NAME" ~doc)

let layer_arg =
  let doc = "ResNet-18 layer label (C0..C11, Table 5 of the paper)." in
  Arg.(value & opt (some string) None & info [ "layer" ] ~docv:"LABEL" ~doc)

let kind_arg =
  let doc = "Operator kind from the evaluation suite (GMM, C2D, DEP, ...)." in
  Arg.(value & opt (some string) None & info [ "kind" ] ~docv:"KIND" ~doc)

let batch_arg =
  let doc = "Batch size for suite operators." in
  Arg.(value & opt int 16 & info [ "batch" ] ~docv:"N" ~doc)

let index_arg =
  let doc = "Configuration index within the operator kind's suite." in
  Arg.(value & opt int 0 & info [ "index" ] ~docv:"I" ~doc)

let seed_arg =
  let doc =
    "Seed recorded in the tuning budget, so it is part of every plan-cache \
     key; $(b,verify) draws its random inputs from it.  Tuned plans do not \
     depend on it: every search stream derives from its mapping."
  in
  Arg.(value & opt int 2022 & info [ "seed" ] ~docv:"SEED" ~doc)

let scale_arg =
  let doc = "Scale layer extents down by this factor (for functional runs)." in
  Arg.(value & opt int 1 & info [ "scale" ] ~docv:"F" ~doc)

module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Batch_compile = Amos_service.Batch_compile
module Migrate = Amos_service.Migrate
module Obs_log = Amos_learn.Obs_log
module Calibrate = Amos_learn.Calibrate
module Screen = Amos_learn.Screen

let jobs_arg =
  let doc =
    "Tune with this many parallel worker domains.  Results are \
     deterministic: any value, including 1, finds the same plans."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Persistent plan-cache directory: tuned plans are stored there and \
     reused on later runs (keyed by operator structure, accelerator, \
     tuning budget and seed)."
  in
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let cache_dir_required =
  let doc = "Plan-cache directory." in
  Arg.(required & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~doc)

(* every tuning entry point funnels through the plan service: a
   [--cache-dir] makes the cache persistent, otherwise a throwaway
   in-memory cache still provides dedup and the parallel tuner *)
let make_cache = function
  | Some dir -> Plan_cache.create ~dir ()
  | None -> Plan_cache.create ()

let budget_with ?(population = 16) ?(generations = 8) seed =
  { Fingerprint.default_budget with
    Fingerprint.population; generations; seed }

(* learned-cost-model plumbing shared by tune/profile: with a
   persistent cache directory, every simulator measurement the tuner
   makes is appended to the observation log next to the plans — the
   raw material for `amos_cli model fit` *)
let observe_into cache_dir accel =
  match cache_dir with
  | None -> None
  | Some dir -> (
      match Obs_log.create ~dir () with
      | log ->
          Some
            (fun ~fingerprint ob ->
              Obs_log.observer log ~config:accel.Accelerator.config
                ~fingerprint ~accel:accel.Accelerator.name ob)
      | exception e ->
          Printf.eprintf "warning: observation log unavailable (%s)\n"
            (Printexc.to_string e);
          None)

let screen_model_of accel = function
  | None -> None
  | Some file -> Some (Screen.of_model ~accel (Calibrate.load ~path:file ()))

let model_arg =
  let doc =
    "Apply the calibrated cost model stored in FILE (see `amos_cli model \
     fit`) during the kernel-free screen: corrected predictions rank \
     candidates and prune simulator measurements.  The identity model is \
     bit-identical to tuning without one."
  in
  Arg.(value & opt (some string) None & info [ "model" ] ~docv:"FILE" ~doc)

(* rebuild the [Compiler.plan] view of a cached value so the reporting
   code paths (describe / profile) work unchanged; the estimates are
   deterministic, so a cached plan reports the numbers it was tuned at *)
let compiler_plan accel op value =
  let seconds = Batch_compile.plan_seconds accel op value in
  let target =
    match value with
    | Plan_cache.Spatial (m, sched) ->
        Compiler.Spatial
          {
            Explore.candidate = { Explore.mapping = m; schedule = sched };
            predicted =
              Perf_model.predict_seconds accel.Accelerator.config
                (Codegen.lower accel m sched);
            measured = seconds;
          }
    | Plan_cache.Scalar -> Compiler.Scalar seconds
  in
  { Compiler.op; accel; target }

let intrinsic_arg =
  let doc =
    "Replace the accelerator's intrinsics with one parsed from FILE \
     (scalar-statement DSL, e.g. 'for {i1:16, i2:16, r1:16r}: Dst[i1,i2] \
     += Src1[i1,r1] * Src2[r1,i2]')."
  in
  Arg.(value & opt (some string) None
       & info [ "intrinsic" ] ~docv:"FILE" ~doc)

let with_custom_intrinsic accel = function
  | None -> accel
  | Some file ->
      let text = In_channel.with_open_text file In_channel.input_all in
      let name = Filename.remove_extension (Filename.basename file) in
      (match Intrinsic.of_dsl ~name text with
      | Ok intr -> { accel with Accelerator.intrinsics = [ intr ] }
      | Error msg -> failwith msg)

let dsl_arg =
  let doc =
    "Read the operator from a DSL file (the paper's input language, e.g. \
     'for {i:16, j:16} for {r:32r}: out[i,j] += a[i,r] * b[r,j]')."
  in
  Arg.(value & opt (some string) None & info [ "dsl" ] ~docv:"FILE" ~doc)

let pick_op ?dsl ~layer ~kind ~batch ~index ~scale () =
  match (dsl, layer, kind) with
  | Some file, _, _ ->
      let text = In_channel.with_open_text file In_channel.input_all in
      Amos_ir.Dsl.parse_exn ~name:(Filename.remove_extension (Filename.basename file)) text
  | None, Some l, _ ->
      let cfg = Resnet.by_label (String.uppercase_ascii l) in
      let cfg = if scale > 1 then Resnet.scaled ~factor:scale cfg else cfg in
      Resnet.config cfg
  | None, None, Some k ->
      let configs = Suites.configs_per_kind ~batch (Ops.kind_of_name k) in
      if index < 0 || index >= List.length configs then
        failwith "config index out of range"
      else List.nth configs index
  | None, None, None -> Resnet.config (Resnet.by_label "C5")

(* --- accels ------------------------------------------------------- *)

let accels_cmd =
  let run () =
    List.iter
      (fun name ->
        let a = accel_by_name name in
        let cfg = a.Accelerator.config in
        Printf.printf "%-8s %-18s cores=%d subcores=%d shared=%dKB bw=%.0fGB/s intrinsic=%s\n"
          name a.Accelerator.name cfg.Spatial_sim.Machine_config.num_cores
          cfg.Spatial_sim.Machine_config.subcores_per_core
          (cfg.Spatial_sim.Machine_config.shared_capacity_bytes / 1024)
          cfg.Spatial_sim.Machine_config.global_bandwidth_gbs
          (Accelerator.primary_intrinsic a).Intrinsic.name)
      Accelerator.preset_names
  in
  Cmd.v (Cmd.info "accels" ~doc:"List accelerator presets")
    Term.(const run $ const ())

(* --- count -------------------------------------------------------- *)

let count_cmd =
  let run accel_name batch intrinsic =
    let accel = with_custom_intrinsic (accel_by_name accel_name) intrinsic in
    let intr = Accelerator.primary_intrinsic accel in
    Printf.printf "feasible mappings on %s (%s):\n" accel.Accelerator.name
      intr.Intrinsic.name;
    List.iter
      (fun kind ->
        let op = Suites.representative ~batch kind in
        Printf.printf "  %-5s %6d\n" (Ops.kind_name kind)
          (Mapping_gen.count op intr))
      Ops.all_kinds
  in
  Cmd.v (Cmd.info "count" ~doc:"Mapping counts per operator kind (Table 6)")
    Term.(const run $ accel_arg $ batch_arg $ intrinsic_arg)

(* --- map ---------------------------------------------------------- *)

let map_cmd =
  let run accel_name layer kind batch index scale dsl intrinsic =
    let accel = with_custom_intrinsic (accel_by_name accel_name) intrinsic in
    let op = pick_op ?dsl ~layer ~kind ~batch ~index ~scale () in
    Format.printf "%a@." Amos_ir.Operator.pp op;
    let mappings = Compiler.mappings accel op in
    Printf.printf "%d valid mappings:\n" (List.length mappings);
    List.iteri
      (fun i m ->
        Printf.printf "%3d. %-60s util=%.2f calls=%d\n" i (Mapping.describe m)
          m.Mapping.utilization (Mapping.intrinsic_calls m))
      mappings
  in
  Cmd.v (Cmd.info "map" ~doc:"Enumerate and describe the valid mapping space")
    Term.(const run $ accel_arg $ layer_arg $ kind_arg $ batch_arg $ index_arg
          $ scale_arg $ dsl_arg $ intrinsic_arg)

(* --- tune --------------------------------------------------------- *)

let tune_cmd =
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"FILE" ~doc:"Write the tuned plan to FILE.")
  in
  let load_arg =
    Arg.(value & opt (some string) None
         & info [ "load" ] ~docv:"FILE"
             ~doc:"Skip tuning and evaluate the plan stored in FILE.")
  in
  let migrate_from_arg =
    Arg.(value & opt (some string) None
         & info [ "migrate-from" ] ~docv:"ACCEL"
             ~doc:
               "Seed tuning with a plan migrated from this accelerator \
                (tuned there first on a source-cache miss); 'auto' scans \
                the cache for any same-operator plan tuned elsewhere.  A \
                cache hit for the target accelerator still wins.")
  in
  let run verbose accel_name layer kind batch index seed save load dsl jobs
      cache_dir migrate_from model_file =
    setup_logs verbose;
    let accel = accel_by_name accel_name in
    let op = pick_op ?dsl ~layer ~kind ~batch ~index ~scale:1 () in
    let model = screen_model_of accel model_file in
    let observe = observe_into cache_dir accel in
    match load with
    | Some file -> (
        let text = In_channel.with_open_text file In_channel.input_all in
        match Plan_io.load accel op text with
        | None -> failwith ("could not bind plan " ^ file ^ " to this operator")
        | Some (m, sched) ->
            let k = Codegen.lower accel m sched in
            Printf.printf "loaded plan: %s\nsimulator: %.4f ms\n"
              (Mapping.describe m)
              (1e3
              *. Spatial_sim.Machine.estimate_seconds accel.Accelerator.config k))
    | None -> (
        let cache = make_cache cache_dir in
        let budget = budget_with seed in
        let migration =
          match migrate_from with
          | None -> None
          | Some src -> (
              (* a target-accelerator cache hit still wins: migration only
                 kicks in when this (op, accel, budget) was never tuned *)
              match Plan_cache.lookup cache ~accel ~op ~budget with
              | Some _ -> None
              | None ->
                  if src = "auto" then
                    Migrate.from_cache cache ~accel ~op ~budget
                  else begin
                    let source = accel_by_name src in
                    match
                      Batch_compile.tune_op ~jobs ~budget ~cache source op
                    with
                    | Plan_cache.Scalar, _ -> None
                    | Plan_cache.Spatial (m, sched), _ ->
                        let o =
                          Migrate.migrate ~target:accel ~op
                            ~source_accel:source.Accelerator.name
                            ~source_fingerprint:
                              (Fingerprint.key ~accel:source ~op ~budget)
                            ~plan_text:(Plan_io.save m sched) ()
                        in
                        if o.Migrate.seeds = [] then None else Some o
                  end)
        in
        let value, source =
          match migration with
          | None ->
              Batch_compile.tune_op ~jobs ~budget ?model ?observe ~cache accel
                op
          | Some o ->
              Printf.printf "[migrated %d seed%s from %s (%s transfer)]\n"
                (List.length o.Migrate.seeds)
                (if List.length o.Migrate.seeds = 1 then "" else "s")
                o.Migrate.source_accel
                (if o.Migrate.direct then "direct" else "structural");
              let t0 = Unix.gettimeofday () in
              let value, _ =
                Batch_compile.tune_fresh ~seeds:o.Migrate.seeds ?model
                  ?observe:
                    (Option.map
                       (fun f ->
                         f ~fingerprint:(Fingerprint.key ~accel ~op ~budget))
                       observe)
                  ~jobs:(Some jobs) ~budget accel op
              in
              let tuning_seconds = Unix.gettimeofday () -. t0 in
              Plan_cache.store ~provenance:(Migrate.provenance o)
                ~tuning_seconds cache ~accel ~op ~budget value;
              (value, Batch_compile.Tuned)
        in
        (match (source, cache_dir) with
        | Batch_compile.Hit, _ -> print_endline "[served from plan cache]"
        | Batch_compile.Tuned, Some dir ->
            Printf.printf "[tuned and cached in %s]\n" dir
        | Batch_compile.Degraded, _ ->
            print_endline "[tuning failed; degraded to scalar fallback]"
        | _ -> ());
        let plan = compiler_plan accel op value in
        print_endline (Compiler.describe plan);
        match plan.Compiler.target with
        | Compiler.Spatial p ->
            let c = p.Explore.candidate in
            Printf.printf "schedule: %s\n"
              (Schedule.describe c.Explore.mapping c.Explore.schedule);
            Printf.printf "model prediction: %.4f ms, simulator: %.4f ms\n"
              (1e3 *. p.Explore.predicted) (1e3 *. p.Explore.measured);
            print_string
              (Codegen.emit_pseudo accel c.Explore.mapping c.Explore.schedule);
            (match save with
            | Some file ->
                Out_channel.with_open_text file (fun oc ->
                    Out_channel.output_string oc
                      (Plan_io.save c.Explore.mapping c.Explore.schedule));
                Printf.printf "[plan saved to %s]\n" file
            | None -> ())
        | Compiler.Scalar _ -> ())
  in
  Cmd.v (Cmd.info "tune" ~doc:"Explore mappings x schedules and report the best plan")
    Term.(const run $ verbose_arg $ accel_arg $ layer_arg $ kind_arg
          $ batch_arg $ index_arg $ seed_arg $ save_arg $ load_arg $ dsl_arg
          $ jobs_arg $ cache_dir_arg $ migrate_from_arg $ model_arg)

(* --- verify ------------------------------------------------------- *)

let verify_cmd =
  let run accel_name layer kind batch index seed scale dsl =
    let accel = accel_by_name accel_name in
    let op = pick_op ?dsl ~layer ~kind ~batch ~index ~scale () in
    let mappings = Compiler.mappings accel op in
    Printf.printf "verifying %d mappings of %s against the reference...\n%!"
      (List.length mappings) op.Amos_ir.Operator.name;
    let ok = ref 0 in
    List.iter
      (fun m ->
        if Compiler.verify ~rng:(Rng.create seed) accel m (Schedule.default m)
        then incr ok)
      mappings;
    Printf.printf "%d/%d bit-exact (tolerance 1e-4)\n" !ok (List.length mappings);
    if !ok < List.length mappings then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Execute every mapping functionally and compare to the reference")
    Term.(const run $ accel_arg $ layer_arg $ kind_arg $ batch_arg $ index_arg
          $ seed_arg $ scale_arg $ dsl_arg)

(* --- validate ------------------------------------------------------ *)

let validate_cmd =
  let run accel_name layer kind batch index which dsl =
    let accel = accel_by_name accel_name in
    let op = pick_op ?dsl ~layer ~kind ~batch ~index ~scale:1 () in
    let mappings = Compiler.mappings accel op in
    match List.nth_opt mappings which with
    | None ->
        Printf.printf "mapping index %d out of range (have %d)\n" which
          (List.length mappings)
    | Some m ->
        Printf.printf "%s\n\n%s" (Mapping.describe m)
          (Matching.explain m.Mapping.matching)
  in
  let which_arg =
    Arg.(value & opt int 0 & info [ "mapping" ] ~docv:"I"
           ~doc:"Index of the mapping to explain.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Show the Algorithm-1 validation trace (X, Y, Z matrices) of a mapping")
    Term.(const run $ accel_arg $ layer_arg $ kind_arg $ batch_arg $ index_arg
          $ which_arg $ dsl_arg)

(* --- networks ------------------------------------------------------ *)

let networks_cmd =
  let run verbose accel_name batch seed jobs cache_dir =
    setup_logs verbose;
    let accel = accel_by_name accel_name in
    let cache = make_cache cache_dir in
    let budget = budget_with ~population:8 ~generations:4 seed in
    Printf.printf "%-14s %7s %8s %12s %6s %6s %10s\n" "Network" "Total"
      "Mapped" "latency(ms)" "hit" "miss" "tuning(s)";
    List.iter
      (fun net ->
        let report, service =
          Batch_compile.compile_network ~jobs ~budget ~cache accel net
        in
        Printf.printf "%-14s %7d %8d %12.3f %6d %6d %10.2f\n%!"
          net.Amos_workloads.Networks.name report.Compiler.total_ops
          (Compiler.mappable_count accel net)
          (1e3 *. report.Compiler.network_seconds)
          service.Batch_compile.cache_hits service.Batch_compile.cache_misses
          service.Batch_compile.tuning_seconds)
      (Amos_workloads.Networks.all ~batch)
  in
  Cmd.v
    (Cmd.info "networks"
       ~doc:"Compile the evaluation networks end-to-end and report coverage + latency")
    Term.(const run $ verbose_arg $ accel_arg $ batch_arg $ seed_arg $ jobs_arg
          $ cache_dir_arg)

(* --- cache --------------------------------------------------------- *)

let cache_stats_cmd =
  let run dir =
    let cache = Plan_cache.create ~dir () in
    Printf.printf "cache directory : %s\n" dir;
    Printf.printf "live entries    : %d\n" (Plan_cache.disk_size cache);
    Printf.printf "disk bytes      : %d\n" (Plan_cache.disk_bytes cache);
    Printf.printf "tuning seconds  : %.2f\n"
      (Plan_cache.disk_tuning_seconds cache);
    (match Obs_log.scan ~dir () with
    | { Obs_log.records = 0; bytes = 0; _ } -> ()
    | s ->
        Printf.printf "observations    : %d records, %d bytes%s\n"
          s.Obs_log.records s.Obs_log.bytes
          (if s.Obs_log.torn then " (torn tail; run fsck)" else "")
    | exception Obs_log.Unsupported_obs_log { version; _ } ->
        Printf.printf "observations    : unsupported log version %s\n" version)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Report the plan cache's live entries, accounted bytes and the \
          tuning seconds it protects")
    Term.(const run $ cache_dir_required)

let max_bytes_arg =
  let doc =
    "Byte budget for the persistent cache: when exceeded, entries with \
     the lowest retention score (tuning-seconds-saved per byte, \
     age-decayed) are evicted first.  Unlimited by default."
  in
  Arg.(value & opt (some int) None & info [ "max-bytes" ] ~docv:"BYTES" ~doc)

let max_tuning_seconds_arg =
  let doc =
    "Tuning-seconds budget for the persistent cache: caps the total \
     exploration cost the cache protects.  Unlimited by default."
  in
  Arg.(value & opt (some float) None
       & info [ "max-tuning-seconds" ] ~docv:"SECONDS" ~doc)

let cache_trim_cmd =
  let run dir max_bytes max_tuning_seconds =
    if max_bytes = None && max_tuning_seconds = None then begin
      prerr_endline
        "cache trim: give --max-bytes and/or --max-tuning-seconds";
      exit 2
    end;
    let cache =
      Plan_cache.create ?max_bytes ?max_tuning_seconds ~dir ()
    in
    let evicted = Plan_cache.trim cache in
    Printf.printf "evicted %d entries; %d entries (%d bytes, %.2f \
                   tuning-seconds) retained\n"
      evicted (Plan_cache.disk_size cache) (Plan_cache.disk_bytes cache)
      (Plan_cache.disk_tuning_seconds cache)
  in
  Cmd.v
    (Cmd.info "trim"
       ~doc:
         "Evict lowest-retention-score entries until the cache fits the \
          given byte / tuning-seconds budgets.")
    Term.(const run $ cache_dir_required $ max_bytes_arg
          $ max_tuning_seconds_arg)

let cache_clear_cmd =
  let run dir =
    let cache = Plan_cache.create ~dir () in
    let n = Plan_cache.disk_size cache in
    Plan_cache.clear cache;
    Printf.printf "evicted %d entries from %s\n" n dir
  in
  Cmd.v (Cmd.info "clear" ~doc:"Drop every cached plan")
    Term.(const run $ cache_dir_required)

let network_arg =
  let doc =
    "Network to warm the cache with (shufflenet, resnet18, resnet50, \
     mobilenet-v1, bert-base, mi-lstm) or 'all'."
  in
  Arg.(value & opt string "all" & info [ "network" ] ~docv:"NAME" ~doc)

let cache_warm_cmd =
  let run verbose dir accel_name network batch seed jobs =
    setup_logs verbose;
    let accel = accel_by_name accel_name in
    let cache = Plan_cache.create ~dir () in
    let budget = budget_with seed in
    let nets =
      let all = Amos_workloads.Networks.all ~batch in
      if network = "all" then all
      else
        match
          List.filter
            (fun (n : Amos_workloads.Networks.t) ->
              String.lowercase_ascii n.Amos_workloads.Networks.name
              = String.lowercase_ascii network)
            all
        with
        | [] ->
            failwith
              ("unknown network " ^ network ^ " (see `amos_cli cache warm --help`)")
        | nets -> nets
    in
    List.iter
      (fun (net : Amos_workloads.Networks.t) ->
        let _, service =
          Batch_compile.compile_network ~jobs ~budget ~cache accel net
        in
        Printf.printf "%-14s %s\n%!" net.Amos_workloads.Networks.name
          (Batch_compile.describe_report service))
      nets;
    Printf.printf "cache now holds %d plans (%d bytes)\n"
      (Plan_cache.disk_size cache) (Plan_cache.disk_bytes cache)
  in
  Cmd.v
    (Cmd.info "warm"
       ~doc:"Pre-tune a network's operators into the plan cache")
    Term.(const run $ verbose_arg $ cache_dir_required $ accel_arg
          $ network_arg $ batch_arg $ seed_arg $ jobs_arg)

let quarantine_ttl_arg =
  let doc =
    "Reclaim (delete) quarantine files older than this many \
     seconds.  Off by default: without it quarantine files are kept \
     forever for post-mortems."
  in
  Arg.(value & opt (some float) None
       & info [ "quarantine-ttl" ] ~docv:"SECONDS" ~doc)

let list_known_bad_arg =
  let doc =
    "List the known-bad markers (fingerprints whose tuning degraded to \
     the scalar fallback; they are skipped on cold compiles)."
  in
  Arg.(value & flag & info [ "list-known-bad" ] ~doc)

let clear_known_bad_arg =
  let doc =
    "Remove every known-bad marker, re-enabling tuning attempts for \
     those fingerprints on the next compile."
  in
  Arg.(value & flag & info [ "clear-known-bad" ] ~doc)

let cache_fsck_cmd =
  let run dir quarantine_ttl list_known_bad clear_known_bad =
    let r = Plan_cache.fsck ?quarantine_ttl ~dir () in
    print_string (Plan_cache.describe_fsck r);
    (* the observation log next to the plans: counted, and a torn tail
       terminated so later appends land on a fresh line *)
    (match Obs_log.scan ~dir () with
    | s ->
        Printf.printf "observations     : %d (%d skipped, torn %s)\n"
          s.Obs_log.records s.Obs_log.skipped
          (if Obs_log.heal ~dir () then "repaired" else "no")
    | exception Obs_log.Unsupported_obs_log { version; _ } ->
        Printf.printf "observations     : unsupported log version %s\n"
          version);
    if list_known_bad then
      List.iter
        (fun (fp, at, reason) ->
          Printf.printf "known-bad %s  marked %.0f  %s\n" fp at reason)
        (Amos_service.Badlist.list ~dir ());
    if clear_known_bad then
      Printf.printf "cleared %d known-bad markers\n"
        (Amos_service.Badlist.clear ~dir ());
    if not (Plan_cache.fsck_clean r) then begin
      print_endline
        "fsck: anomalies found (corrupt records quarantined, or the \
         journal could not be read)";
      exit 1
    end
    else print_endline "fsck: clean"
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Replay the journal, check every record's digest and entry \
          header, quarantine corruption, sweep abandoned temp files and \
          heal the observation log; optionally \
          reclaim aged quarantine files and list or clear known-bad \
          markers.  Exits 1 when anomalies were found (they are repaired \
          regardless).")
    Term.(const run $ cache_dir_required $ quarantine_ttl_arg
          $ list_known_bad_arg $ clear_known_bad_arg)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Inspect, clear, warm or repair the persistent tuning cache")
    [ cache_stats_cmd; cache_clear_cmd; cache_warm_cmd; cache_trim_cmd;
      cache_fsck_cmd ]

(* --- model (learned cost model) ------------------------------------ *)

let model_out_arg =
  let doc =
    "Write the fitted model to FILE (default: model.amos inside the \
     cache directory, where the daemon and `tune --model` find it)."
  in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

let model_fit_cmd =
  let run dir out accel_filter min_obs =
    let records = Obs_log.read ~dir () in
    let records =
      match accel_filter with
      | None -> records
      | Some a -> List.filter (fun r -> r.Obs_log.accel = a) records
    in
    if List.length records < min_obs then begin
      Printf.eprintf
        "model fit: only %d observation%s in %s (need %d; tune with \
         --cache-dir to collect more)\n"
        (List.length records)
        (if List.length records = 1 then "" else "s")
        dir min_obs;
      exit 2
    end;
    let m =
      Calibrate.fit
        (List.map
           (fun r ->
             (r.Obs_log.features, r.Obs_log.predicted, r.Obs_log.measured))
           records)
    in
    let path =
      match out with
      | Some f -> f
      | None -> Filename.concat dir Calibrate.file_name
    in
    Calibrate.save ~path m;
    Printf.printf "model written to %s\n%s" path (Calibrate.describe m)
  in
  let accel_filter_arg =
    let doc = "Fit only observations recorded on this accelerator." in
    Arg.(value & opt (some string) None
         & info [ "only-accel" ] ~docv:"NAME" ~doc)
  in
  let min_obs_arg =
    let doc = "Refuse to fit from fewer observations than this." in
    Arg.(value & opt int 8 & info [ "min-obs" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "fit"
       ~doc:
         "Fit the multiplicative correction model from the observation \
          log (least squares on log(measured/predicted) over the \
          candidate feature vectors) and write a versioned model file.")
    Term.(const run $ cache_dir_required $ model_out_arg $ accel_filter_arg
          $ min_obs_arg)

let model_stats_cmd =
  let run dir model_file =
    (match Obs_log.scan ~dir () with
    | s ->
        Printf.printf
          "observation log  : %d records, %d skipped, %d bytes%s\n"
          s.Obs_log.records s.Obs_log.skipped s.Obs_log.bytes
          (if s.Obs_log.torn then " (torn tail)" else "")
    | exception Obs_log.Unsupported_obs_log { version; _ } ->
        Printf.printf "observation log  : unsupported version %s\n" version);
    let path =
      match model_file with
      | Some f -> f
      | None -> Filename.concat dir Calibrate.file_name
    in
    if Sys.file_exists path then begin
      let m = Calibrate.load ~path () in
      Printf.printf "model file       : %s%s\n" path
        (if Calibrate.is_identity m then " (identity)" else "");
      print_string (Calibrate.describe m)
    end
    else Printf.printf "model file       : none at %s\n" path
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Report the observation log's record count and integrity, and \
          describe the fitted model file if one exists.")
    Term.(const run $ cache_dir_required $ model_arg)

let model_cmd =
  Cmd.group
    (Cmd.info "model"
       ~doc:
         "Fit and inspect the learned cost model: a calibration layer \
          over the analytic performance model, fitted from the \
          observation log the tuner records next to the plan cache.")
    [ model_fit_cmd; model_stats_cmd ]

(* --- abstraction --------------------------------------------------- *)

let abstraction_cmd =
  let run accel_name =
    let accel = accel_by_name accel_name in
    List.iter
      (fun intr -> Format.printf "%a@.@." Intrinsic.pp intr)
      accel.Accelerator.intrinsics
  in
  Cmd.v
    (Cmd.info "abstraction"
       ~doc:"Print the hardware compute and memory abstraction (Sec 4)")
    Term.(const run $ accel_arg)

(* --- profile -------------------------------------------------------- *)

let profile_cmd =
  let run accel_name layer kind batch index seed dsl jobs cache_dir =
    let accel = accel_by_name accel_name in
    let op = pick_op ?dsl ~layer ~kind ~batch ~index ~scale:1 () in
    let cache = make_cache cache_dir in
    let value, _ =
      Batch_compile.tune_op ~jobs ~budget:(budget_with seed)
        ?observe:(observe_into cache_dir accel) ~cache accel op
    in
    let plan = compiler_plan accel op value in
    match plan.Compiler.target with
    | Compiler.Scalar s ->
        Printf.printf "scalar fallback: %.4f ms
" (1e3 *. s)
    | Compiler.Spatial p ->
        let c = p.Explore.candidate in
        let k = Codegen.lower accel c.Explore.mapping c.Explore.schedule in
        let e = Spatial_sim.Machine.estimate accel.Accelerator.config k in
        let t = k.Spatial_sim.Kernel.timing in
        let flops = Amos_ir.Operator.flops op in
        Printf.printf "mapping : %s
" (Mapping.describe c.Explore.mapping);
        Printf.printf "schedule: %s
"
          (Schedule.describe c.Explore.mapping c.Explore.schedule);
        Printf.printf "time    : %.4f ms (%.0f GFLOPS)
"
          (1e3 *. e.Spatial_sim.Machine.seconds)
          (flops /. e.Spatial_sim.Machine.seconds /. 1e9);
        Printf.printf "blocks  : %d  (waves %d, occupancy %d/core)
"
          (Spatial_sim.Kernel.blocks k) e.Spatial_sim.Machine.waves
          e.Spatial_sim.Machine.occupancy;
        Printf.printf "compute : %.0f cycles  | memory bound %.4f ms
"
          e.Spatial_sim.Machine.compute_cycles
          (1e3 *. e.Spatial_sim.Machine.memory_seconds);
        Printf.printf
          "traffic : %.1f KB/block global load, %.1f KB/block store, %d B shared staging
"
          (t.Spatial_sim.Kernel.global_load_bytes_per_block /. 1024.)
          (t.Spatial_sim.Kernel.global_store_bytes_per_block /. 1024.)
          t.Spatial_sim.Kernel.shared_bytes_per_block;
        Printf.printf "utilization: %.1f%% of intrinsic compute; coalescing %.2f
"
          (100. *. c.Explore.mapping.Mapping.utilization)
          t.Spatial_sim.Kernel.mem_efficiency;
        let levels = Perf_model.predict accel.Accelerator.config k in
        Printf.printf
          "model levels: L0=%.1f L1=%.1f L2=%.1f L3=%.1f cycles (Sec 5.3)
"
          levels.Perf_model.l0 levels.Perf_model.l1 levels.Perf_model.l2
          levels.Perf_model.l3
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Tune one operator and print the simulator's timing breakdown")
    Term.(const run $ accel_arg $ layer_arg $ kind_arg $ batch_arg $ index_arg
          $ seed_arg $ dsl_arg $ jobs_arg $ cache_dir_arg)

(* --- ir ------------------------------------------------------------ *)

let ir_cmd =
  let run accel_name layer kind batch index dsl =
    let accel = accel_by_name accel_name in
    let op = pick_op ?dsl ~layer ~kind ~batch ~index ~scale:1 () in
    match Compiler.mappings accel op with
    | [] -> print_endline "no valid mapping"
    | m :: _ ->
        Printf.printf "compute mapping: %s\n" (Mapping.describe m);
        print_endline "physical memory mapping (Fig 3h):";
        List.iter
          (fun om -> Format.printf "  %a@." Memory_map.pp om)
          (Memory_map.of_mapping m);
        print_endline "IR nodes inserted during lowering (Table 4):";
        Format.printf "%a@." Ir_nodes.pp_nodes (Ir_nodes.lower m)
  in
  Cmd.v
    (Cmd.info "ir" ~doc:"Show the Compute/Memory IR nodes for a mapping (Sec 6)")
    Term.(const run $ accel_arg $ layer_arg $ kind_arg $ batch_arg $ index_arg
          $ dsl_arg)

(* --- serve / client (the plan-serving daemon) ---------------------- *)

module Server = Amos_server.Server
module Sclient = Amos_server.Client
module Protocol = Amos_server.Protocol
module Transport = Amos_server.Transport
module Fleet = Amos_fleet.Fleet
module Ring = Amos_fleet.Ring

let socket_arg =
  let doc =
    "Path of the daemon's Unix-domain socket (the local trusted path; \
     optional when --tcp is given)."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_serve_arg =
  let doc =
    "Also listen on TCP at HOST:PORT (or just PORT, binding 127.0.0.1).  \
     TCP connections must open with the authenticated handshake."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let token_arg =
  let doc =
    "Shared fleet auth token every TCP handshake must present \
     (constant-time comparison).  Without it only an empty token is \
     accepted."
  in
  Arg.(value & opt (some string) None & info [ "token" ] ~docv:"TOKEN" ~doc)

let peers_arg =
  let doc =
    "Comma-separated HOST:PORT list of the other fleet daemons.  Each \
     plan fingerprint is owned by one member of the consistent-hash \
     ring over self + peers; local misses for foreign fingerprints are \
     forwarded to their owner, and an unreachable owner falls back to \
     local tuning."
  in
  Arg.(value & opt (some string) None & info [ "peers" ] ~docv:"LIST" ~doc)

let self_arg =
  let doc =
    "This daemon's own HOST:PORT as the peers see it (ring identity).  \
     Defaults to the --tcp address; required with --peers when --tcp \
     binds a wildcard or ephemeral address the peers cannot dial."
  in
  Arg.(value & opt (some string) None & info [ "self" ] ~docv:"HOST:PORT" ~doc)

let split_peers s =
  String.split_on_char ',' s
  |> List.map String.trim
  |> List.filter (fun p -> p <> "")

let parse_tcp_exn s =
  match Transport.parse_tcp s with
  | Ok hp -> hp
  | Error msg -> failwith msg

let serve_cmd =
  let run verbose socket tcp token peers self_addr cache_dir workers
      queue_capacity jobs hot_capacity hot_max_bytes max_bytes
      max_tuning_seconds =
    setup_logs verbose;
    let tcp = Option.map parse_tcp_exn tcp in
    if socket = None && tcp = None then
      failwith "serve: give --socket PATH and/or --tcp HOST:PORT";
    (* AMOS_NET_CHAOS / AMOS_NET_FAULTS poison the daemon's socket I/O
       from the outside — how the chaos smoke test injects faults into
       a real multi-process fleet; the same handle mediates accepted
       connections and the fleet's outbound forwards *)
    let net = Amos_server.Net_io.of_env () in
    let peers = match peers with None -> [] | Some s -> split_peers s in
    let router =
      if peers = [] then None
      else begin
        let self =
          match (self_addr, tcp) with
          | Some s, _ ->
              let host, port = parse_tcp_exn s in
              Printf.sprintf "%s:%d" host port
          | None, Some (host, port) when port <> 0 ->
              Printf.sprintf "%s:%d" host port
          | None, _ ->
              failwith
                "serve: --peers needs --self (or a fixed --tcp address) as \
                 this daemon's ring identity"
        in
        let fleet =
          Fleet.create
            {
              (Fleet.default_config ~self ~peers) with
              Fleet.token = Option.value token ~default:"";
              net;
            }
        in
        Some (Fleet.router fleet)
      end
    in
    let server =
      Server.create ?router
        {
          Server.socket_path = socket;
          tcp;
          auth_token = token;
          handshake_timeout_s = 5.;
          cache_dir;
          workers;
          queue_capacity;
          jobs;
          hot_capacity;
          hot_max_bytes;
          max_bytes;
          max_tuning_seconds;
          io_timeout_s = 30.;
          net;
        }
    in
    List.iter
      (fun signal ->
        try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Server.stop server))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ];
    Server.serve server;
    (* a chaos run says what it injected, so a smoke test can tell a
       fault plan that fired from one that never did *)
    let fired = Amos_server.Net_io.injected net in
    if fired > 0 then
      Printf.eprintf "amosd: %d network faults injected\n%!" fired
  in
  let workers_arg =
    let doc = "Tuning worker domains." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Tuning requests admitted to the queue before new work is refused \
       with a typed Busy response (admission control)."
    in
    Arg.(value & opt int 8 & info [ "queue-capacity" ] ~docv:"N" ~doc)
  in
  let hot_arg =
    let doc =
      "In-memory hot-plan cache entries (lowest retention score evicted \
       first)."
    in
    Arg.(value & opt int 128 & info [ "hot-capacity" ] ~docv:"N" ~doc)
  in
  let hot_bytes_arg =
    let doc =
      "Byte budget for the in-memory hot-plan cache.  Unlimited by \
       default (the entry-count bound still applies)."
    in
    Arg.(value & opt (some int) None
         & info [ "hot-max-bytes" ] ~docv:"BYTES" ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the plan-serving daemon (amosd): one process owns the plan \
          cache and serves tuning over a Unix-domain socket and/or TCP \
          with single-flight deduplication, admission control and \
          cost-aware cache budgets.  With --peers it joins a plan fleet: \
          each fingerprint has one ring owner, misses are forwarded to \
          it, and a dead owner degrades to local tuning.")
    Term.(const run $ verbose_arg $ socket_arg $ tcp_serve_arg $ token_arg
          $ peers_arg $ self_arg $ cache_dir_arg $ workers_arg
          $ queue_arg $ jobs_arg $ hot_arg $ hot_bytes_arg $ max_bytes_arg
          $ max_tuning_seconds_arg)

let op_spec_of ?dsl ~layer ~kind ~batch ~index () =
  match (dsl, layer, kind) with
  | Some file, _, _ ->
      Protocol.Dsl_text (In_channel.with_open_text file In_channel.input_all)
  | None, Some l, _ -> Protocol.Layer (String.uppercase_ascii l)
  | None, None, Some k -> Protocol.Kind { kind = k; batch; index }
  | None, None, None -> Protocol.Layer "C5"

let show_plan_arg =
  let doc = "Print the full plan text, not just the summary." in
  Arg.(value & flag & info [ "show-plan" ] ~doc)

(* nonzero exits let shell scripts (and CI smoke tests) distinguish a
   served plan from a miss, back-pressure, and failure *)
let print_response ~show_plan = function
  | Protocol.Ok_r info -> Printf.printf "ok: %s\n" info
  | Protocol.Plan_r r ->
      Printf.printf "fingerprint %s\n" r.Protocol.fingerprint;
      Printf.printf "source      %s\n" r.Protocol.source;
      (match r.Protocol.plan with
      | Protocol.Wire_scalar -> print_endline "plan        scalar fallback"
      | Protocol.Wire_spatial text ->
          Printf.printf "plan        spatial (%d bytes)\n" (String.length text);
          if show_plan then print_string text);
      if r.Protocol.evaluations > 0 then
        Printf.printf "tuned       %d evaluations, %.2fs\n"
          r.Protocol.evaluations r.Protocol.tuning_seconds
  | Protocol.Not_found_r ->
      print_endline "not found";
      exit 2
  | Protocol.Stats_r s ->
      Printf.printf "uptime          %.1fs\n" s.Protocol.uptime_s;
      Printf.printf "requests        %d\n" s.Protocol.requests;
      Printf.printf "tunes           %d\n" s.Protocol.tunes;
      Printf.printf "deduped         %d\n" s.Protocol.deduped;
      Printf.printf "hot hits        %d\n" s.Protocol.hot_hits;
      Printf.printf "cache hits      %d\n" s.Protocol.cache_hits;
      Printf.printf "busy rejections %d\n" s.Protocol.busy_rejections;
      Printf.printf "deadline rejected %d\n" s.Protocol.deadline_rejections;
      Printf.printf "cancels         %d\n" s.Protocol.cancels;
      Printf.printf "in flight       %d\n" s.Protocol.in_flight;
      Printf.printf "queue load      %d\n" s.Protocol.queue_load;
      Printf.printf "hot bytes       %d\n" s.Protocol.hot_bytes;
      Printf.printf "hot tuning-s    %.2f\n" s.Protocol.hot_tuning_seconds;
      Printf.printf "cache bytes     %d\n" s.Protocol.cache_bytes;
      Printf.printf "retuned         %d\n" s.Protocol.quarantine_retunes;
      Printf.printf "forwarded       %d\n" s.Protocol.forwarded;
      Printf.printf "peer hits       %d\n" s.Protocol.peer_hits;
      Printf.printf "peer fallbacks  %d\n" s.Protocol.peer_fallbacks;
      Printf.printf "budget fallbacks %d\n" s.Protocol.budget_fallbacks;
      Printf.printf "auth rejected   %d\n" s.Protocol.auth_rejections
  | Protocol.Compiled_r c ->
      Printf.printf "network   %s\n" c.Protocol.network;
      Printf.printf "ops       %d total, %d mapped\n" c.Protocol.total_ops
        c.Protocol.mapped_ops;
      Printf.printf "latency   %.3f ms\n" (1e3 *. c.Protocol.network_seconds);
      Printf.printf "stages    %d (%d cache hits, %d tuned)\n"
        c.Protocol.stages c.Protocol.comp_cache_hits c.Protocol.comp_tuned
  | Protocol.Busy_r { retry_after_s } ->
      Printf.printf "busy (retry after %.2fs)\n" retry_after_s;
      exit 3
  | Protocol.Progress_r p ->
      (* only ever terminal on a decoding mismatch; streamed frames go
         through [print_progress] *)
      Printf.printf "progress (gen %d, %d evaluations)\n" p.Protocol.pg_generation
        p.Protocol.pg_evaluations
  | Protocol.Cancelled_r ->
      print_endline "cancelled";
      exit 4
  | Protocol.Deadline_hint_r { projected_wait_s } ->
      Printf.printf "deadline unmeetable (projected wait %.2fs)\n"
        projected_wait_s;
      exit 5
  | Protocol.Error_r msg ->
      Printf.eprintf "server error: %s\n" msg;
      exit 1

let print_progress (p : Protocol.progress_body) =
  let lat = function
    | Some s -> Printf.sprintf "%.3f ms" (1e3 *. s)
    | None -> "-"
  in
  Printf.printf "gen %-4d best predicted %-12s measured %-12s (%d evaluations)\n"
    p.Protocol.pg_generation
    (lat p.Protocol.pg_best_predicted)
    (lat p.Protocol.pg_best_measured)
    p.Protocol.pg_evaluations;
  flush stdout

let tcp_client_arg =
  let doc =
    "Talk to the daemon over TCP at HOST:PORT (or just PORT, dialing \
     127.0.0.1) instead of the Unix socket."
  in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let endpoint_of ~socket ~tcp =
  match (tcp, socket) with
  | Some addr, _ ->
      let host, port = parse_tcp_exn addr in
      Transport.Tcp { host; port }
  | None, Some path -> Transport.Unix_path path
  | None, None -> failwith "client: give --socket PATH or --tcp HOST:PORT"

let client_run ~socket ~tcp ~token ?deadline_ms req ~retry ~show_plan =
  let endpoint = endpoint_of ~socket ~tcp in
  let token = Option.value token ~default:"" in
  match
    Sclient.with_endpoint ~attempts:20 ~token endpoint (fun conn ->
        let result =
          if retry then Sclient.request_retry ?deadline_ms conn req
          else Sclient.request ?deadline_ms conn req
        in
        match result with
        | Ok resp -> print_response ~show_plan resp
        | Error msg ->
            Printf.eprintf "client error: %s\n" msg;
            exit 1)
  with
  | () -> ()
  | exception Sclient.Denied reason ->
      Printf.eprintf "client error: handshake denied: %s\n" reason;
      exit 1

let client_health_cmd =
  let run socket tcp token =
    client_run ~socket ~tcp ~token Protocol.Health ~retry:false
      ~show_plan:false
  in
  Cmd.v (Cmd.info "health" ~doc:"Ping the daemon")
    Term.(const run $ socket_arg $ tcp_client_arg $ token_arg)

let client_stats_cmd =
  let run socket tcp token =
    client_run ~socket ~tcp ~token Protocol.Stats ~retry:false
      ~show_plan:false
  in
  Cmd.v (Cmd.info "stats" ~doc:"Print the daemon's counters")
    Term.(const run $ socket_arg $ tcp_client_arg $ token_arg)

let client_shutdown_cmd =
  let run socket tcp token =
    client_run ~socket ~tcp ~token Protocol.Shutdown ~retry:false
      ~show_plan:false
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Gracefully stop the daemon (drains in-flight tuning first)")
    Term.(const run $ socket_arg $ tcp_client_arg $ token_arg)

let deadline_ms_arg =
  let doc =
    "Total time budget for this request in milliseconds.  Rides the \
     request envelope: a daemon forwarding the request to its fleet \
     owner subtracts its own elapsed time first, so the peer hop \
     observes a strictly smaller budget, and a budget too small to \
     forward falls back to local tuning immediately."
  in
  Arg.(value & opt (some int) None & info [ "deadline-ms" ] ~docv:"MS" ~doc)

(* Streaming variant of [client_run]: the request rides with
   [accept_stream] set and a request id, per-generation progress frames
   render live, and both Ctrl-C and [--cancel-after N] turn into a
   protocol [Cancel] sent on its own short-lived connection (the
   streaming connection is mid-exchange and cannot carry it). *)
let client_stream_run ~socket ~tcp ~token ?deadline_ms ~request_id
    ~cancel_after req ~show_plan =
  let endpoint = endpoint_of ~socket ~tcp in
  let token = Option.value token ~default:"" in
  let request_id =
    match request_id with
    | Some id -> id
    | None ->
        (* pid x time keeps concurrent CLI invocations apart without
           coordination; collisions only mis-route a cancel *)
        (Unix.getpid () * 1_000_003)
        lxor int_of_float (Unix.gettimeofday () *. 1e6)
        land 0x3FFF_FFFF
  in
  let send_cancel () =
    try
      Sclient.with_endpoint ~token endpoint (fun c ->
          ignore (Sclient.cancel c ~request_id))
    with _ -> ()
  in
  let previous_sigint =
    (* run the cancel off-thread: a signal handler must not block on a
       fresh connection *)
    try
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle
              (fun _ -> ignore (Thread.create send_cancel ()))))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let restore () =
    match previous_sigint with
    | Some b -> ( try Sys.set_signal Sys.sigint b with _ -> ())
    | None -> ()
  in
  let frames = ref 0 in
  let on_progress p =
    incr frames;
    print_progress p;
    match cancel_after with
    | Some n when !frames = n -> ignore (Thread.create send_cancel ())
    | _ -> ()
  in
  Fun.protect ~finally:restore (fun () ->
      match
        Sclient.with_endpoint ~attempts:20 ~token endpoint (fun conn ->
            match
              Sclient.request_stream ?deadline_ms ~request_id ~on_progress
                conn req
            with
            | Ok resp -> print_response ~show_plan resp
            | Error msg ->
                Printf.eprintf "client error: %s\n" msg;
                exit 1)
      with
      | () -> ()
      | exception Sclient.Denied reason ->
          Printf.eprintf "client error: handshake denied: %s\n" reason;
          exit 1)

let stream_arg =
  let doc =
    "Stream per-generation tuning progress: the daemon interleaves \
     progress frames (best predicted/measured latency, evaluation count) \
     before the final reply.  Ctrl-C cancels the request on the server \
     instead of abandoning it."
  in
  Arg.(value & flag & info [ "stream" ] ~doc)

let cancel_after_arg =
  let doc =
    "With --stream: send a cancel after N progress frames (exercises \
     server-side cancellation; the exit code is 4 when the server \
     confirms)."
  in
  Arg.(value & opt (some int) None & info [ "cancel-after" ] ~docv:"N" ~doc)

let request_id_arg =
  let doc =
    "With --stream: explicit request id to register the stream under \
     (so another invocation can cancel it); default is derived from \
     pid and time."
  in
  Arg.(value & opt (some int) None & info [ "request-id" ] ~docv:"ID" ~doc)

let client_op_cmd name ~doc make_req =
  let run socket tcp token accel layer kind batch index seed dsl show_plan
      deadline_ms stream cancel_after request_id =
    let op = op_spec_of ?dsl ~layer ~kind ~batch ~index () in
    let budget = budget_with seed in
    let req = make_req ~accel ~op ~budget in
    if stream then
      client_stream_run ~socket ~tcp ~token ?deadline_ms ~request_id
        ~cancel_after req ~show_plan
    else
      client_run ~socket ~tcp ~token ?deadline_ms req ~retry:true ~show_plan
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ socket_arg $ tcp_client_arg $ token_arg $ accel_arg
          $ layer_arg $ kind_arg $ batch_arg $ index_arg $ seed_arg
          $ dsl_arg $ show_plan_arg $ deadline_ms_arg $ stream_arg
          $ cancel_after_arg $ request_id_arg)

let client_tune_cmd =
  client_op_cmd "tune"
    ~doc:
      "Ask the daemon for a tuned plan (served from its caches, joined \
       onto an identical in-flight tune, or freshly explored)."
    (fun ~accel ~op ~budget -> Protocol.Tune { accel; op; budget })

let client_lookup_cmd =
  client_op_cmd "lookup"
    ~doc:"Cache-only query: never triggers tuning (exit 2 on a miss)."
    (fun ~accel ~op ~budget -> Protocol.Lookup { accel; op; budget })

let client_migrate_cmd =
  client_op_cmd "migrate"
    ~doc:
      "Tune warm-started from cross-accelerator plans already in the \
       daemon's cache."
    (fun ~accel ~op ~budget -> Protocol.Migrate_tune { accel; op; budget })

let client_cancel_cmd =
  let run socket tcp token request_id =
    client_run ~socket ~tcp ~token
      (Protocol.Cancel { request_id })
      ~retry:false ~show_plan:false
  in
  let id_arg =
    let doc = "Request id of the streaming request to cancel." in
    Arg.(required & opt (some int) None
         & info [ "request-id" ] ~docv:"ID" ~doc)
  in
  Cmd.v
    (Cmd.info "cancel"
       ~doc:
         "Cancel a streaming request by id: its waiter detaches and its \
          stream ends with a cancelled frame; a tune shared with other \
          clients keeps running for them (exit 2 when no such stream \
          exists).")
    Term.(const run $ socket_arg $ tcp_client_arg $ token_arg $ id_arg)

let client_compile_cmd =
  let run socket tcp token accel network batch seed jobs =
    let budget = budget_with ~population:8 ~generations:4 seed in
    client_run ~socket ~tcp ~token
      (Protocol.Compile { accel; network; batch; budget; jobs })
      ~retry:true ~show_plan:false
  in
  let network_req_arg =
    let doc = "Network to compile (shufflenet, resnet18, ...)." in
    Arg.(value & opt string "resnet18" & info [ "network" ] ~docv:"NAME" ~doc)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a whole network through the daemon's plan service")
    Term.(const run $ socket_arg $ tcp_client_arg $ token_arg $ accel_arg
          $ network_req_arg $ batch_arg $ seed_arg $ jobs_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running plan-serving daemon")
    [
      client_health_cmd; client_stats_cmd; client_tune_cmd; client_lookup_cmd;
      client_migrate_cmd; client_compile_cmd; client_cancel_cmd;
      client_shutdown_cmd;
    ]

(* --- fleet -------------------------------------------------------- *)

(* offline fleet introspection: compute the fingerprint a request will
   carry and which ring member owns it, without any daemon running.
   The op is resolved by the daemon's own resolver, and fingerprints
   hash iteration structure by position (the operator's name is
   cosmetic), so this agrees with the server. *)
let fleet_fingerprint_of ~accel ~layer ~kind ~batch ~index ~seed ~dsl =
  let op = Server.resolve_op (op_spec_of ?dsl ~layer ~kind ~batch ~index ()) in
  Fingerprint.key ~accel:(accel_by_name accel) ~op ~budget:(budget_with seed)

let fleet_fingerprint_cmd =
  let run accel layer kind batch index seed dsl =
    print_endline
      (fleet_fingerprint_of ~accel ~layer ~kind ~batch ~index ~seed ~dsl)
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:
         "Print the plan fingerprint a tune/lookup request for this \
          operator will carry (computed offline, identical to the \
          daemon's).")
    Term.(const run $ accel_arg $ layer_arg $ kind_arg $ batch_arg
          $ index_arg $ seed_arg $ dsl_arg)

let fleet_owner_cmd =
  let run members vnodes fingerprint =
    let members = split_peers members in
    let ring = Ring.create ~vnodes members in
    match Ring.owner ring fingerprint with
    | Some o -> print_endline o
    | None ->
        prerr_endline "owner: empty ring";
        exit 2
  in
  let members_arg =
    let doc = "Comma-separated ring member list (every daemon's HOST:PORT)." in
    Arg.(required & opt (some string) None
         & info [ "members" ] ~docv:"LIST" ~doc)
  in
  let vnodes_arg =
    let doc = "Ring points per member (must match the daemons')." in
    Arg.(value & opt int Ring.default_vnodes
         & info [ "vnodes" ] ~docv:"N" ~doc)
  in
  let fingerprint_arg =
    let doc = "Plan fingerprint (see `amos_cli fleet fingerprint`)." in
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FINGERPRINT" ~doc)
  in
  Cmd.v
    (Cmd.info "owner"
       ~doc:
         "Print which ring member owns a fingerprint.  Deterministic: \
          every process with the same member list computes the same \
          owner.")
    Term.(const run $ members_arg $ vnodes_arg $ fingerprint_arg)

let fleet_cmd =
  Cmd.group
    (Cmd.info "fleet"
       ~doc:
         "Inspect plan-fleet routing: fingerprints and consistent-hash \
          ring ownership, computed offline.")
    [ fleet_fingerprint_cmd; fleet_owner_cmd ]

let () =
  let doc = "AMOS: automatic mapping for tensor computations on spatial accelerators" in
  let info = Cmd.info "amos_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ accels_cmd; count_cmd; map_cmd; tune_cmd; verify_cmd;
            validate_cmd; networks_cmd; cache_cmd; model_cmd; profile_cmd;
            abstraction_cmd; ir_cmd; serve_cmd; client_cmd; fleet_cmd ]))
