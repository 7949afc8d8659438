(* The daemon workloads: the real [amos_cli serve] in its own process
   (--workers 1 --jobs 1), driven by one client thread over one
   connection in a closed loop — a compiler blocks on each plan it asks
   for.

   serve_hot: a seeded working set of 128 operators, tuned once each in
   set-up, then Zipf(1) [Lookup]s over it.  The set fits the default
   128-entry hot tier, so every lookup is a hot hit whatever the timing:
   the time goes to the wire, DSL parsing, fingerprinting and dispatch.

   serve_churn: a seeded read set stored in a cache directory, the
   daemon restarted over it with a hot tier large enough for every plan
   the run touches, then Zipf(1) [Lookup]s with every 50th request a
   [Tune] of a never-seen GEMM or conv2d.  First touches read the disk
   tier (Plan_io.load plus Algorithm-1 re-validation); fresh tunes miss
   both tiers, tune on the pool and append a plan file, a journal line
   and observation-log lines. *)

module Rng = Amos_tensor.Rng
module Operator = Amos_ir.Operator
module Plan_cache = Amos_service.Plan_cache
module Protocol = Amos_server.Protocol

let lookup ~budget (it : Inputs.item) =
  Protocol.Lookup { accel = it.accel_name; op = Protocol.Dsl_text it.text; budget }

let tune ~budget (it : Inputs.item) =
  Protocol.Tune { accel = it.accel_name; op = Protocol.Dsl_text it.text; budget }

type reply = { latency : float; tuning_s : float }

(* One timed exchange.  The reply counts as correct only if it is a plan
   from the expected tier, for the expected fingerprint, equal to the
   reference plan.  (Traced runs time in wall seconds, so the span is
   the exchange itself.) *)
let exchange d ~rid req (it : Inputs.item) ~source ~plan =
  let r, latency = Speed.timed (fun () -> Daemon.request d req) in
  let stop = Util.now () in
  match r with
  | Protocol.Plan_r p ->
      Trace.record ~rid ("request." ^ p.Protocol.source) ~start:(stop -. latency)
        ~stop;
      Util.attempt
        (p.Protocol.source = source && p.Protocol.fingerprint = it.fp
        && Inputs.wire_text p.Protocol.plan = plan)
        (lazy
          (Printf.sprintf "%s on %s: %s reply, expected %s%s" it.op.Operator.name
             it.accel_name p.Protocol.source source
             (if Inputs.wire_text p.Protocol.plan = plan then ""
              else " (plan differs from the in-process tune)")));
      { latency; tuning_s = p.Protocol.tuning_seconds }
  | _ ->
      Util.attempt false
        (lazy (Printf.sprintf "%s on %s: not a plan reply" it.op.Operator.name it.accel_name));
      { latency; tuning_s = 0. }

(* The daemon's Stats over a request list must equal what the list
   implies. *)
let check_stats stats ~requests ~hot ~cache ~tunes =
  let c = Layers.delta stats in
  Util.attempt
    (c = { Layers.requests; hot; cache; tunes; busy = 0 })
    (lazy
      (Printf.sprintf
         "daemon stats: %d requests, %d hot, %d cache, %d tunes, %d busy; \
          expected %d, %d, %d, %d, 0"
         c.requests c.hot c.cache c.tunes c.busy requests hot cache tunes));
  c

let plan_of reference (it : Inputs.item) = Hashtbl.find reference it.fp

let reference_table refs =
  let t = Hashtbl.create 1024 in
  List.iter
    (fun ((it : Inputs.item), v) -> Hashtbl.replace t it.fp (Inputs.plan_text v))
    refs;
  t

let plan_speedup refs =
  Util.geomean
    (List.map (fun ((it : Inputs.item), v) -> Inputs.speedup it.accel it.op v) refs)

(* [n] set-ups, each timed on a settled heap; every daemon but the last
   is stopped as soon as its set-up is timed *)
let setups n f =
  let runs =
    List.init n (fun i ->
        Util.settle ();
        let (d, x), dt = Speed.timed f in
        if i < n - 1 then Daemon.stop d;
        (d, x, dt))
  in
  let d, extra, _ = List.nth runs (n - 1) in
  (d, extra, List.map (fun (_, x, dt) -> (x, dt)) runs)

let ladder ~budget ~refs ~frames d =
  let plans = List.map (fun ((it : Inputs.item), v) -> (it.accel, it.op, v)) refs in
  (Ladder.rungs ~budget plans frames, Ladder.health_rtt_us d)

(* a request frame for the wire rungs: the operator and the plan its
   reply carries *)
let frame reference (it : Inputs.item) =
  match plan_of reference it with
  | "scalar" -> (it, Protocol.Wire_scalar)
  | text -> (it, Protocol.Wire_spatial text)

let frames ~reference requests =
  List.map (frame reference) (List.filteri (fun i _ -> i < 512) requests)

(* A traced pass: every request goes to two daemons set up identically,
   back to back, one copy traced and one not; which daemon goes first
   and which copy is traced both alternate, so neither the order nor a
   daemon's placement on the cores biases the tracing overhead.  Both
   replies are checked; the traced ones are returned. *)
let ab_pass a b send requests =
  List.mapi
    (fun rid r ->
      let first, second = if rid mod 2 = 0 then (a, b) else (b, a) in
      let trace_first = rid / 2 mod 2 = 0 in
      let x = Trace.side ~trace:trace_first (fun () -> send first ~rid r) in
      let y = Trace.side ~trace:(not trace_first) (fun () -> send second ~rid r) in
      if trace_first then x else y)
    requests

let traced_counts (a, a_stats) (b, b_stats) check =
  ignore (check (a_stats, Daemon.stats a));
  check (b_stats, Daemon.stats b)

(* --- serve_hot ------------------------------------------------------ *)

let working_set = 128

let hot_inputs ~seed ~seconds =
  let budget = Inputs.budget seed in
  let rng = Rng.create seed in
  let working = Array.of_list (Inputs.stratified rng working_set (Inputs.pool ~budget)) in
  let draw = Inputs.zipf (Array.length working) in
  let requests = List.init (4000 * seconds) (fun _ -> working.(draw rng)) in
  (budget, Array.to_list working, requests)

(* set-up: spawn a daemon on an empty cache and tune the working set *)
let hot_setup ~budget ~reference working () =
  let d = Daemon.spawn ~dir:(Util.fresh_dir "hot") () in
  let tunes =
    List.mapi
      (fun rid it ->
        exchange d ~rid (tune ~budget it) it ~source:"tuned"
          ~plan:(plan_of reference it))
      working
  in
  (d, tunes)

let hot_send ~budget ~reference d ~rid it =
  exchange d ~rid (lookup ~budget it) it ~source:"hot" ~plan:(plan_of reference it)

let hot ~seed ~seconds =
  let budget, working, requests = hot_inputs ~seed ~seconds in
  let refs = Tuner.reference ~budget ~trace:false working in
  let reference = reference_table refs in
  let d, _, setup_runs = setups 3 (hot_setup ~budget ~reference working) in
  Util.settle ();
  let before = Daemon.stats d in
  let replies = List.mapi (fun rid -> hot_send ~budget ~reference d ~rid) requests in
  let n = List.length requests in
  ignore (check_stats (before, Daemon.stats d) ~requests:n ~hot:n ~cache:0 ~tunes:0);
  let rss = Daemon.peak_rss_mb d in
  Daemon.stop d;
  let lat = List.map (fun r -> r.latency) replies in
  Printf.eprintf "serve_hot: %d lookups timed\n%!" n;
  [
    ("setup_s", Util.median (List.map snd setup_runs), "s");
    ("compile_s", Util.sum lat, "s");
    ( "tune_s",
      Util.median
        (List.map (fun (ts, _) -> Util.sum (List.map (fun r -> r.latency) ts)) setup_runs),
      "s" );
    ("lookup_p50_us", 1e6 *. Util.percentile 50. lat, "us");
    ("lookup_p99_us", 1e6 *. Util.percentile 99. lat, "us");
    ("plan_speedup", plan_speedup refs, "x");
    ("peak_rss_mb", rss, "MB");
  ]

let hot_traced ~seed ~seconds =
  let budget, working, requests = hot_inputs ~seed ~seconds in
  let refs = Tuner.reference ~budget ~trace:true working in
  let reference = reference_table refs in
  let a, _ = hot_setup ~budget ~reference working () in
  let b, tunes = hot_setup ~budget ~reference working () in
  let a0 = Daemon.stats a and b0 = Daemon.stats b in
  ignore (ab_pass a b (hot_send ~budget ~reference) requests);
  let n = List.length requests in
  let counts =
    traced_counts (a, a0) (b, b0) (fun s ->
        check_stats s ~requests:n ~hot:n ~cache:0 ~tunes:0)
  in
  let rungs, health_rtt_us = ladder ~budget ~refs ~frames:(frames ~reference requests) b in
  let obs = Layers.obs_records b.Daemon.dir in
  Daemon.stop a;
  Daemon.stop b;
  (* cold start of the same plans: a restarted daemon serves each once
     from its disk tier *)
  let d = Daemon.spawn ~dir:b.Daemon.dir () in
  let firsts =
    List.mapi
      (fun rid it ->
        exchange d ~rid (lookup ~budget it) it ~source:"cache" ~plan:(plan_of reference it))
      working
  in
  Daemon.stop d;
  Layers.metrics ~gc_alloc_mb:!Tuner.alloc_mb ~obs_records:obs
    ~overhead_pct:(Trace.overhead_pct ()) ~rungs
    ~server:
      {
        Layers.hot_p50_us = 1e6 *. Util.percentile 50. (Trace.durations "request.hot");
        cache_p50_us = 1e6 *. Util.percentile 50. (List.map (fun r -> r.latency) firsts);
        tune_server_s = Util.sum (List.map (fun r -> r.tuning_s) tunes);
        health_rtt_us;
        counts;
      }

(* --- serve_churn ---------------------------------------------------- *)

let read_set = 512
let fresh_every = 50

(* requests per scenario: with the 512-operator read set, about one
   lookup in twenty is a first touch, so the 99th percentile sits inside
   the disk-tier latencies *)
let scenario_requests = 10_000

type req = Read of Inputs.item | Fresh of Inputs.item

let churn_inputs ~seed =
  let budget = Inputs.budget seed in
  let rng = Rng.create seed in
  let pool = Inputs.pool ~budget in
  let read = Array.of_list (Inputs.stratified rng read_set pool) in
  let n = scenario_requests in
  let avoid = Hashtbl.create 1024 in
  List.iter (fun (_, (it : Inputs.item)) -> Hashtbl.replace avoid it.fp ()) pool;
  let fresh = Array.of_list (Inputs.fresh ~budget ~avoid rng (n / fresh_every)) in
  let draw = Inputs.zipf (Array.length read) in
  let requests =
    List.init n (fun i ->
        if i mod fresh_every = fresh_every - 1 then Fresh fresh.(i / fresh_every)
        else Read read.(draw rng))
  in
  (* the tier each reply must come from follows from the list alone: a
     read's first touch from the disk tier, every later one from the hot
     tier, and every fresh operator is tuned *)
  let touched = Hashtbl.create 1024 in
  let expected =
    List.map
      (function
        | Read it when Hashtbl.mem touched it.fp -> (Read it, "hot")
        | Read it ->
            Hashtbl.add touched it.fp ();
            (Read it, "cache")
        | Fresh it -> (Fresh it, "tuned"))
      requests
  in
  (budget, Array.to_list read, Array.to_list fresh, expected)

(* set-up: store the read set in a new cache directory, then start the
   daemon over it with room in the hot tier for every plan the run
   touches *)
let churn_setup ~budget ~read_refs ~hot_capacity () =
  let dir = Util.fresh_dir "churn" in
  let cache = Plan_cache.create ~dir () in
  List.iter
    (fun ((it : Inputs.item), v) ->
      Plan_cache.store cache ~accel:it.accel ~op:it.op ~budget v)
    read_refs;
  (Daemon.spawn ~hot_capacity ~dir (), ())

let churn_send ~budget ~reference d ~rid (r, source) =
  let it, req =
    match r with
    | Read it -> (it, lookup ~budget it)
    | Fresh it -> (it, tune ~budget it)
  in
  exchange d ~rid req it ~source ~plan:(plan_of reference it)

let churn_check expected stats =
  let n source = List.length (List.filter (fun (_, s) -> s = source) expected) in
  check_stats stats ~requests:(List.length expected) ~hot:(n "hot") ~cache:(n "cache")
    ~tunes:(n "tuned")

let verify rng fresh_refs =
  Inputs.verify_small ~count:2 rng
    (List.map (fun ((it : Inputs.item), v) -> (it.accel, it.op, v)) fresh_refs)

let churn_refs ~budget ~trace read fresh =
  let read_refs = Tuner.reference ~budget ~trace read in
  let fresh_refs = Tuner.reference ~budget ~trace fresh in
  (read_refs, fresh_refs, reference_table (read_refs @ fresh_refs))

(* A run plays the same scenario [seconds / 10] times, each on its own
   restarted daemon: set-up, then the request list.  Totals are the
   median scenario; percentiles pool every scenario's lookups. *)
let churn ~seed ~seconds =
  let budget, read, fresh, expected = churn_inputs ~seed in
  let read_refs, fresh_refs, reference = churn_refs ~budget ~trace:false read fresh in
  let hot_capacity = List.length read + List.length fresh + 1 in
  let scenario () =
    let d, (), setup_runs = setups 5 (churn_setup ~budget ~read_refs ~hot_capacity) in
    Util.settle ();
    let before = Daemon.stats d in
    let replies = List.mapi (fun rid -> churn_send ~budget ~reference d ~rid) expected in
    ignore (churn_check expected (before, Daemon.stats d));
    let rss = Daemon.peak_rss_mb d in
    Daemon.stop d;
    let lat, tune_lat =
      List.partition_map
        (fun ((r, _), reply) ->
          match r with Read _ -> Left reply.latency | Fresh _ -> Right reply.latency)
        (List.combine expected replies)
    in
    (List.map snd setup_runs, lat, tune_lat, rss)
  in
  let runs = List.init (max 1 (seconds / 10)) (fun _ -> scenario ()) in
  verify (Rng.create seed) fresh_refs;
  let lat = List.concat_map (fun (_, l, _, _) -> l) runs in
  let median_of f = Util.median (List.map f runs) in
  Printf.eprintf
    "serve_churn: %d scenarios, read set of %d, %d lookups and %d fresh tunes timed\n%!"
    (List.length runs) (List.length read) (List.length lat)
    (List.length runs * List.length fresh);
  [
    ("setup_s", Util.median (List.concat_map (fun (s, _, _, _) -> s) runs), "s");
    ("compile_s", median_of (fun (_, l, t, _) -> Util.sum l +. Util.sum t), "s");
    ("tune_s", median_of (fun (_, _, t, _) -> Util.sum t), "s");
    ("lookup_p50_us", 1e6 *. Util.percentile 50. lat, "us");
    ("lookup_p99_us", 1e6 *. Util.percentile 99. lat, "us");
    ("plan_speedup", plan_speedup (read_refs @ fresh_refs), "x");
    ("peak_rss_mb", median_of (fun (_, _, _, rss) -> rss), "MB");
  ]

let churn_traced ~seed ~seconds:_ =
  let budget, read, fresh, expected = churn_inputs ~seed in
  let read_refs, fresh_refs, reference = churn_refs ~budget ~trace:true read fresh in
  let hot_capacity = List.length read + List.length fresh + 1 in
  let a, () = churn_setup ~budget ~read_refs ~hot_capacity () in
  let b, () = churn_setup ~budget ~read_refs ~hot_capacity () in
  let a0 = Daemon.stats a and b0 = Daemon.stats b in
  let obs0 = Layers.obs_records b.Daemon.dir in
  let replies = ab_pass a b (churn_send ~budget ~reference) expected in
  let counts = traced_counts (a, a0) (b, b0) (churn_check expected) in
  let obs = Layers.obs_records b.Daemon.dir - obs0 in
  let reads =
    List.filter_map (function Read it, _ -> Some it | Fresh _, _ -> None) expected
  in
  let refs = read_refs @ fresh_refs in
  let rungs, health_rtt_us = ladder ~budget ~refs ~frames:(frames ~reference reads) b in
  Daemon.stop a;
  Daemon.stop b;
  verify (Rng.create seed) fresh_refs;
  Layers.metrics ~gc_alloc_mb:!Tuner.alloc_mb ~obs_records:obs
    ~overhead_pct:(Trace.overhead_pct ()) ~rungs
    ~server:
      {
        Layers.hot_p50_us = 1e6 *. Util.percentile 50. (Trace.durations "request.hot");
        cache_p50_us = 1e6 *. Util.percentile 50. (Trace.durations "request.cache");
        tune_server_s =
          Util.sum
            (List.filter_map
               (fun ((r, _), reply) ->
                 match r with Fresh _ -> Some reply.tuning_s | Read _ -> None)
               (List.combine expected replies));
        health_rtt_us;
        counts;
      }
