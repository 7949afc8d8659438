(* The layer ladder: the per-call cost of each rung's public entry point,
   timed in the benchmark process on the workload's own operators, plans
   and request frames. *)

open Amos
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Clock = Amos_service.Clock
module Protocol = Amos_server.Protocol
module Hot_cache = Amos_server.Hot_cache

(* Per-call seconds of [f] over [inputs]: [passes] passes, each calling
   [f] [k] times on every input; the median pass.  A fixed amount of
   work, so a slower machine never changes what is timed. *)
let per_call ?(passes = 7) ~k f inputs =
  let a = Array.of_list inputs in
  let n = Array.length a in
  if n = 0 then nan
  else
    Util.median
      (List.init passes (fun _ ->
           let t0 = Util.now () in
           for _ = 1 to k do
             Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) a
           done;
           (Util.now () -. t0) /. float_of_int (k * n)))

let ns x = x *. 1e9
let us x = x *. 1e6

(* tuner and simulator rungs, on the workload's spatial plans *)
let tuner_rungs plans =
  let spatial =
    List.filter_map
      (fun (accel, _op, v) ->
        match v with
        | Plan_cache.Spatial (m, s) -> Some (accel, m, s)
        | Plan_cache.Scalar -> None)
      plans
  in
  let prepared =
    List.map (fun (accel, m, s) -> (accel, Codegen.prepare accel m, s)) spatial
  in
  let summaries =
    List.map
      (fun (accel, p, s) ->
        ( Perf_model.context accel.Accelerator.config,
          Codegen.summarize_prepared p s ))
      prepared
  in
  let kernels =
    List.map
      (fun (accel, p, s) ->
        (accel.Accelerator.config, Codegen.lower_prepared p s))
      prepared
  in
  [
    ( "matching.validate_ns",
      ns (per_call ~k:20 (fun (_, m, _) -> Matching.validate m.Mapping.matching) spatial),
      "ns" );
    ( "codegen.prepare_us",
      us (per_call ~k:2 (fun (accel, m, _) -> Codegen.prepare accel m) spatial),
      "us" );
    ( "codegen.summarize_ns",
      ns (per_call ~k:10 (fun (_, p, s) -> Codegen.summarize_prepared p s) prepared),
      "ns" );
    ( "perf_model.predict_ns",
      ns
        (per_call ~k:20
           (fun (ctx, sm) -> Perf_model.predict_seconds_summary ctx sm)
           summaries),
      "ns" );
    ( "machine.estimate_us",
      us
        (per_call ~k:2
           (fun (cfg, kern) -> Spatial_sim.Machine.estimate_seconds cfg kern)
           kernels),
      "us" );
  ]

(* persistence rungs: plan text, then the on-disk cache at the
   workload's own size (a miss re-reads a journal of that many entries) *)
let persistence_rungs ~budget plans =
  let spatial =
    List.filter_map
      (fun (accel, op, v) ->
        match v with
        | Plan_cache.Spatial (m, s) -> Some (accel, op, m, s, Plan_io.save m s)
        | Plan_cache.Scalar -> None)
      plans
  in
  let miss_budget = { budget with Fingerprint.seed = budget.Fingerprint.seed + 1 } in
  let n = float_of_int (List.length plans) in
  let passes =
    List.init 5 (fun _ ->
        let dir = Util.fresh_dir "ladder" in
        let cache = Plan_cache.create ~dir () in
        let (), store =
          Util.timed (fun () ->
              List.iter
                (fun (accel, op, v) -> Plan_cache.store cache ~accel ~op ~budget v)
                plans)
        in
        let reader = Plan_cache.create ~dir () in
        let (), lookup =
          Util.timed (fun () ->
              List.iter
                (fun (accel, op, _) ->
                  ignore (Plan_cache.lookup reader ~accel ~op ~budget))
                plans)
        in
        let (), miss =
          Util.timed (fun () ->
              List.iter
                (fun (accel, op, _) ->
                  ignore (Plan_cache.lookup reader ~accel ~op ~budget:miss_budget))
                plans)
        in
        Util.rm_rf dir;
        (store /. n, lookup /. n, miss /. n))
  in
  let pick f = us (Util.median (List.map f passes)) in
  [
    ( "plan_io.save_us",
      us (per_call ~k:2 (fun (_, _, m, s, _) -> Plan_io.save m s) spatial),
      "us" );
    ( "plan_io.load_us",
      us (per_call ~k:1 (fun (accel, op, _, _, text) -> Plan_io.load accel op text) spatial),
      "us" );
    ("plan_cache.store_us", pick (fun (s, _, _) -> s), "us");
    ("plan_cache.lookup_us", pick (fun (_, l, _) -> l), "us");
    ("plan_cache.miss_us", pick (fun (_, _, m) -> m), "us");
  ]

(* request-front and wire rungs, on the workload's own request frames:
   (operator, the plan the reply carries) *)
let front_rungs ~budget (frames : (Inputs.item * Protocol.plan_wire) list) =
  let requests =
    List.map
      (fun ((it : Inputs.item), plan) ->
        let req =
          Protocol.Lookup
            { accel = it.accel_name; op = Protocol.Dsl_text it.text; budget }
        in
        let resp =
          Protocol.Plan_r
            {
              Protocol.fingerprint = it.fp;
              plan;
              source = "hot";
              evaluations = 0;
              tuning_seconds = 0.;
            }
        in
        (it, req, Protocol.encode_request req, resp, Protocol.encode_response resp))
      frames
  in
  let hot =
    Hot_cache.create ~capacity:(List.length frames + 1) ~clock:(Clock.real ()) ()
  in
  List.iter
    (fun ((it : Inputs.item), plan) ->
      Hot_cache.put hot it.fp plan ~bytes:1 ~tuning_seconds:1.)
    frames;
  let rung name ~k f =
    (name, us (per_call ~k f requests), "us")
  in
  [
    rung "dsl.parse_us" ~k:2 (fun ((it : Inputs.item), _, _, _, _) ->
        Amos_ir.Dsl.parse ~name:"wire-op" it.text);
    rung "fingerprint.key_us" ~k:2 (fun ((it : Inputs.item), _, _, _, _) ->
        Fingerprint.key ~accel:it.accel ~op:it.op ~budget);
    rung "accelerator.by_name_us" ~k:5 (fun ((it : Inputs.item), _, _, _, _) ->
        Accelerator.by_name it.accel_name);
    rung "protocol.encode_request_us" ~k:5 (fun (_, req, _, _, _) ->
        Protocol.encode_request req);
    rung "protocol.decode_request_us" ~k:5 (fun (_, _, payload, _, _) ->
        Protocol.decode_request payload);
    rung "protocol.encode_response_us" ~k:5 (fun (_, _, _, resp, _) ->
        Protocol.encode_response resp);
    rung "protocol.decode_response_us" ~k:5 (fun (_, _, _, _, payload) ->
        Protocol.decode_response payload);
    ( "hot_cache.find_ns",
      ns
        (per_call ~k:50
           (fun ((it : Inputs.item), _, _, _, _) -> Hot_cache.find hot it.fp)
           requests),
      "ns" );
  ]

let rungs ~budget plans frames =
  tuner_rungs plans @ persistence_rungs ~budget plans @ front_rungs ~budget frames

(* round trip of the smallest request over the daemon's socket *)
let health_rtt_us d =
  us
    (Util.median
       (List.init 2000 (fun _ ->
            let (), dt =
              Util.timed (fun () -> ignore (Daemon.request d Protocol.Health))
            in
            dt)))

(* ROADMAP item 1's attribution identity: the part of a hot lookup that
   no rung explains *)
let residual_us ~hot_p50_us ~health_rtt_us rungs =
  let get name =
    match List.find_opt (fun (n, _, _) -> n = name) rungs with
    | Some (_, v, "ns") -> v /. 1000.
    | Some (_, v, _) -> v
    | None -> 0.
  in
  hot_p50_us -. health_rtt_us
  -. Util.sum
       (List.map get
          [ "accelerator.by_name_us"; "dsl.parse_us"; "fingerprint.key_us";
            "hot_cache.find_ns"; "protocol.encode_request_us";
            "protocol.decode_request_us"; "protocol.encode_response_us";
            "protocol.decode_response_us" ])
