(* Assembly of the per-layer metrics of a traced run, in the order
   BENCHMARK.json lists them. *)

module Protocol = Amos_server.Protocol

(* what the daemon's [Stats] counted between two [Stats] requests, not
   counting the second one *)
type counts = { requests : int; hot : int; cache : int; tunes : int; busy : int }

let delta ((before : Protocol.server_stats), (after : Protocol.server_stats)) =
  {
    requests = after.requests - before.requests - 1;
    hot = after.hot_hits - before.hot_hits;
    cache = after.cache_hits - before.cache_hits;
    tunes = after.tunes - before.tunes;
    busy = after.busy_rejections;
  }

let add a b =
  {
    requests = a.requests + b.requests;
    hot = a.hot + b.hot;
    cache = a.cache + b.cache;
    tunes = a.tunes + b.tunes;
    busy = a.busy + b.busy;
  }

type server = {
  hot_p50_us : float;
  cache_p50_us : float;
  tune_server_s : float;
      (** sum of the tuning seconds the daemon reported in fresh replies *)
  health_rtt_us : float;
  counts : counts;  (** over the traced requests *)
}

let count name v = (name, float_of_int v, "count")

let metrics ~gc_alloc_mb ~obs_records ~overhead_pct ~rungs ~server =
  let _, mapping_gen_self, _ = Trace.totals "mapping_gen" in
  let total name =
    let t, _, _ = Trace.totals name in
    t
  in
  let c = Tuner.counts in
  let rung name =
    match List.find_opt (fun (n, _, _) -> n = name) rungs with
    | Some r -> r
    | None -> failwith ("rung not measured: " ^ name)
  in
  let s = server.counts in
  [
    ("mapping_gen.self_s", mapping_gen_self, "s");
    count "mapping_gen.mappings" c.Tuner.mappings;
    rung "matching.validate_ns";
    ("explore.screen_s", total "explore.screen", "s");
    count "explore.screen_evals" c.Tuner.screen_evals;
    rung "codegen.prepare_us";
    rung "codegen.summarize_ns";
    rung "perf_model.predict_ns";
    ("explore.search_s", total "explore.genetic", "s");
    count "explore.search_evals" c.Tuner.search_evals;
    count "explore.survivors" c.Tuner.survivors;
    ("machine.measure_s", total "machine.measure", "s");
    count "machine.runs" c.Tuner.runs;
    rung "machine.estimate_us";
    count "batch_compile.stages" c.Tuner.stages;
    count "batch_compile.unique" c.Tuner.unique;
    count "batch_compile.hits" c.Tuner.hits;
    ("gc.alloc_mb", gc_alloc_mb, "MB");
    rung "plan_cache.store_us";
    rung "plan_cache.lookup_us";
    rung "plan_cache.miss_us";
    rung "plan_io.save_us";
    rung "plan_io.load_us";
    rung "dsl.parse_us";
    rung "fingerprint.key_us";
    rung "accelerator.by_name_us";
    rung "protocol.encode_request_us";
    rung "protocol.decode_request_us";
    rung "protocol.encode_response_us";
    rung "protocol.decode_response_us";
    ("client.health_rtt_us", server.health_rtt_us, "us");
    rung "hot_cache.find_ns";
    ("server.hot_p50_us", server.hot_p50_us, "us");
    ("server.cache_p50_us", server.cache_p50_us, "us");
    ("server.tune_server_s", server.tune_server_s, "s");
    ( "server.residual_us",
      Ladder.residual_us ~hot_p50_us:server.hot_p50_us
        ~health_rtt_us:server.health_rtt_us rungs,
      "us" );
    count "server.requests" s.requests;
    count "server.hot_hits" s.hot;
    count "server.cache_hits" s.cache;
    count "server.tunes" s.tunes;
    count "server.busy_rejections" s.busy;
    count "obs_log.records" obs_records;
    ("trace.overhead_pct", overhead_pct, "%");
  ]

let obs_records dir = (Amos_learn.Obs_log.scan ~dir ()).Amos_learn.Obs_log.records
