(* compile_cold: the paper's own use.  In process, at one job, into an
   empty on-disk cache: the six evaluation networks at batch 1 and 16
   through [Batch_compile.compile_network], then the 113-configuration
   operator suite at batch 16 through [Batch_compile.tune_op], on the
   a100 and avx512 presets.  Nearly all the time goes to mapping
   generation, Algorithm-1 validation, model screening, genetic search
   and simulation; the serving layers stay idle. *)

open Amos
module Rng = Amos_tensor.Rng
module Operator = Amos_ir.Operator
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Batch_compile = Amos_service.Batch_compile
module Networks = Amos_workloads.Networks
module Suites = Amos_workloads.Suites
module Ops = Amos_workloads.Ops
module Protocol = Amos_server.Protocol

type work =
  | Net of Accelerator.t * Networks.t
  | Op of Accelerator.t * Ops.kind * int * Operator.t
      (** suite operator: kind and index within the kind, batch 16 *)

(* the seed fixes the compile order *)
let inputs rng =
  let work =
    List.concat_map
      (fun name ->
        let accel = Inputs.accel_of name in
        List.concat_map
          (fun batch -> List.map (fun n -> Net (accel, n)) (Networks.all ~batch))
          [ 1; 16 ]
        @ List.concat_map
            (fun kind ->
              List.mapi
                (fun i op -> Op (accel, kind, i, op))
                (Suites.configs_per_kind ~batch:16 kind))
            Ops.all_kinds)
      Inputs.accel_names
    |> Array.of_list
  in
  Rng.shuffle rng work;
  Array.to_list work

(* every tensor stage the compile serves, in order *)
let stages work =
  List.concat_map
    (function
      | Net (accel, net) ->
          List.map (fun (op, _) -> (accel, op)) (Networks.tensor_ops net)
      | Op (accel, _, _, op) -> [ (accel, op) ])
    work

(* set-up: build the inputs and open an empty on-disk cache *)
let setup seed =
  let work = inputs (Rng.create seed) in
  let dir = Util.fresh_dir "cold" in
  (work, dir, Plan_cache.create ~dir ())

type outcome = {
  mutable nets : (Accelerator.t * Networks.t * Compiler.network_report) list;
  mutable ops : (Accelerator.t * Operator.t * Plan_cache.value) list;
  mutable item_s : (float * float) list;
      (** per work item, newest first: its time, and the part of it spent
          tuning fresh operators, in reference seconds ([Speed]) *)
  mutable stages : int;
  mutable unique : int;
  mutable hits : int;
}

let outcome () = { nets = []; ops = []; item_s = []; stages = 0; unique = 0; hits = 0 }

(* one work item through the program's own entry points *)
let compile_item o ~budget cache w =
  match w with
  | Net (accel, net) ->
      let (report, r), dt =
        Speed.timed (fun () ->
            Batch_compile.compile_network ~jobs:1 ~budget ~cache accel net)
      in
      o.item_s <- (dt, Speed.scale r.Batch_compile.tuning_seconds) :: o.item_s;
      Util.attempt
        (r.Batch_compile.degraded_stages = 0 && r.Batch_compile.known_bad_stages = 0)
        (lazy (net.Networks.name ^ ": degraded stages"));
      o.stages <- o.stages + r.Batch_compile.tensor_stages;
      o.unique <- o.unique + r.Batch_compile.unique_stages;
      o.hits <- o.hits + r.Batch_compile.cache_hits;
      o.nets <- o.nets @ [ (accel, net, report) ]
  | Op (accel, _, _, op) ->
      let (v, source), dt =
        Speed.timed (fun () -> Batch_compile.tune_op ~jobs:1 ~budget ~cache accel op)
      in
      o.item_s <- (dt, if source = Batch_compile.Tuned then dt else 0.) :: o.item_s;
      Util.attempt
        (match source with
        | Batch_compile.Hit | Batch_compile.Tuned | Batch_compile.Repeat -> true
        | Batch_compile.Degraded | Batch_compile.Known_bad -> false)
        (lazy (op.Operator.name ^ ": degraded"));
      o.stages <- o.stages + 1;
      o.unique <- o.unique + 1;
      if source <> Batch_compile.Tuned then o.hits <- o.hits + 1;
      o.ops <- o.ops @ [ (accel, op, v) ]

let compile ~budget cache work =
  let o = outcome () in
  List.iter (compile_item o ~budget cache) work;
  o

(* Reload every stage through a fresh handle on the compile's directory
   (each first touch reads the disk tier and re-runs Plan_io.load and
   Algorithm 1) and compare with [reference] (fingerprint -> plan text),
   filling it on first use.  Right after each first touch, the
   re-validating memory-layer hit that a stage repeated across networks
   pays inside a compile is timed: the median of nine back to back, so
   that one sample is the plan's cost and not a collector pause.
   Returns those times and the unique plans. *)
let reload ~budget ~dir ~reference work =
  let cache = Plan_cache.create ~dir () in
  let seen = Hashtbl.create 1024 in
  let times = ref [] and plans = ref [] in
  List.iter
    (fun (accel, op) ->
      let fp = Fingerprint.key ~accel ~op ~budget in
      let v = Plan_cache.lookup cache ~accel ~op ~budget in
      if not (Hashtbl.mem seen fp) then begin
        Hashtbl.add seen fp ();
        let dt =
          Util.median
            (List.init 9 (fun _ ->
                 snd (Speed.timed (fun () -> Plan_cache.lookup cache ~accel ~op ~budget))))
        in
        times := dt :: !times;
        Option.iter (fun v -> plans := (accel, op, v) :: !plans) v
      end;
      let text = Option.map Inputs.plan_text v in
      (match (text, Hashtbl.find_opt reference fp) with
      | Some t, None -> Hashtbl.add reference fp t
      | _ -> ());
      Util.attempt
        (text <> None && text = Hashtbl.find_opt reference fp)
        (lazy
          (Printf.sprintf "%s on %s: stored plan %s" op.Operator.name
             accel.Accelerator.name
             (if text = None then "does not reload" else "differs between runs"))))
    (stages work);
  (!times, List.rev !plans)

let plan_speedup o =
  Util.geomean
    (List.map
       (fun (accel, net, (r : Compiler.network_report)) ->
         Amos_baselines.Library_backend.network_seconds
           ~rng:(Rng.create 0) accel net
         /. r.Compiler.network_seconds)
       o.nets
    @ List.map (fun (accel, op, v) -> Inputs.speedup accel op v) o.ops)

let network_seconds o =
  List.map (fun (_, _, r) -> r.Compiler.network_seconds) o.nets

(* Each repetition is the whole cold compile into its own empty cache,
   the same work in the same order.  [compile_s] and [tune_s] sum, over
   the work items, each item's median over the repetitions: a transient
   slowdown of the shared machine during one item of one repetition is
   rejected instead of inflating that repetition's total. *)
let run ~seed ~seconds =
  let budget = Inputs.budget seed in
  let reps = max 1 (seconds / 4) in
  (* set-ups are timed on their own and dropped, so that what the
     benchmark holds does not inflate the compile's peak memory *)
  let setup_s =
    Util.median
      (List.init (9 * reps) (fun _ ->
           Util.settle ();
           snd (Speed.timed (fun () -> ignore (setup seed)))))
  in
  let reference = Hashtbl.create 1024 in
  let first = ref None and rss = ref nan in
  let runs =
    List.init reps (fun _ ->
        let work, dir, cache = setup seed in
        Util.settle ();
        let o = compile ~budget cache work in
        (* the peak of a process that has done one cold compile: later
           repetitions only grow the collector's heap further *)
        if Option.is_none !first then rss := Util.vm_hwm_mb "self";
        Util.settle ();
        let times, _ = reload ~budget ~dir ~reference work in
        (* only the first repetition's plans are kept *)
        (match !first with
        | None -> first := Some o
        | Some o1 ->
            Util.attempt
              (network_seconds o = network_seconds o1)
              (lazy "network latencies differ between identical compiles"));
        (List.rev o.item_s, times))
  in
  let o1 = Option.get !first in
  Inputs.verify_small ~count:1 (Rng.create seed) o1.ops;
  let per_item f =
    let items = List.map (fun (item_s, _) -> Array.of_list item_s) runs in
    Util.sum
      (List.init (Array.length (List.hd items)) (fun i ->
           Util.median (List.map (fun a -> f a.(i)) items)))
  in
  let lookups = List.concat_map snd runs in
  Printf.eprintf "compile_cold: %d repetitions, %d lookups timed\n%!" reps
    (List.length lookups);
  [
    ("setup_s", setup_s, "s");
    ("compile_s", per_item fst, "s");
    ("tune_s", per_item snd, "s");
    ("lookup_p50_us", 1e6 *. Util.percentile 50. lookups, "us");
    ("lookup_p99_us", 1e6 *. Util.percentile 99. lookups, "us");
    ("plan_speedup", plan_speedup o1, "x");
    ("peak_rss_mb", !rss, "MB");
  ]

(* --- traced run ----------------------------------------------------- *)

(* one work item replayed through the decomposed tuner, recording the
   chosen plan text per fingerprint *)
let replay_item ~budget cache plans w =
  let ctx = Tuner.unit_ctx ~cache ~budget in
  let one accel op =
    let fp, v = Tuner.replay ctx accel op in
    Hashtbl.replace plans fp (Inputs.plan_text v)
  in
  match w with
  | Net (accel, net) ->
      Trace.span "network" (fun () ->
          List.iter (fun (op, _) -> one accel op) (Networks.tensor_ops net))
  | Op (accel, _, _, op) -> one accel op

(* Serve the compile's plans: a daemon over the compile's directory
   answers each suite operator (sent as DSL text, as a compiler client
   would) from its disk tier, then from its hot tier; a second daemon on
   an empty cache tunes a seeded sample of them afresh and must find the
   compile's plans. *)
let serve_plans ~budget ~dir ~reference rng work =
  let seen = Hashtbl.create 256 in
  let suite =
    List.filter_map
      (function
        | Net _ -> None
        | Op (accel, _, _, op) -> (
            let name =
              List.find
                (fun n -> (Inputs.accel_of n).Accelerator.name = accel.Accelerator.name)
                Inputs.accel_names
            in
            (* only operators whose DSL text round-trips to the compiled
               fingerprint, each once *)
            match Inputs.item ~budget name op with
            | Some it
              when it.fp = Fingerprint.key ~accel ~op ~budget
                   && not (Hashtbl.mem seen it.fp) ->
                Hashtbl.add seen it.fp ();
                Some it
            | Some _ | None -> None))
      work
  in
  let plan (it : Inputs.item) = Hashtbl.find reference it.fp in
  let d = Daemon.spawn ~hot_capacity:(List.length suite + 1) ~dir () in
  let before = Daemon.stats d in
  let pass source =
    List.mapi
      (fun rid it ->
        Serve.exchange d ~rid (Serve.lookup ~budget it) it ~source ~plan:(plan it))
      suite
  in
  let cache = pass "cache" in
  let hot = pass "hot" in
  let n = List.length suite in
  let served =
    Serve.check_stats (before, Daemon.stats d) ~requests:(2 * n) ~hot:n ~cache:n ~tunes:0
  in
  let health_rtt_us = Ladder.health_rtt_us d in
  Daemon.stop d;
  let sample =
    let a = Array.of_list suite in
    Rng.shuffle rng a;
    Array.to_list (Array.sub a 0 (min 8 (Array.length a)))
  in
  let d2 = Daemon.spawn ~dir:(Util.fresh_dir "tune") () in
  let before = Daemon.stats d2 in
  let tuned =
    List.mapi
      (fun rid it ->
        Serve.exchange d2 ~rid (Serve.tune ~budget it) it ~source:"tuned" ~plan:(plan it))
      sample
  in
  let k = List.length sample in
  let fresh =
    Serve.check_stats (before, Daemon.stats d2) ~requests:k ~hot:0 ~cache:0 ~tunes:k
  in
  Daemon.stop d2;
  let p50 l = 1e6 *. Util.percentile 50. (List.map (fun r -> r.Serve.latency) l) in
  ( List.map (Serve.frame reference) suite,
    {
      Layers.hot_p50_us = p50 hot;
      cache_p50_us = p50 cache;
      tune_server_s = Util.sum (List.map (fun r -> r.Serve.tuning_s) tuned);
      health_rtt_us;
      counts = Layers.add served fresh;
    } )

(* The compile through the program's entry points, then replayed
   through the decomposed tuner twice, untraced and traced, item by item
   back to back (see [Trace.ab]).  The traced replay must choose exactly
   the program's plans and deduplicate identically. *)
let traced ~seed ~seconds:_ =
  let budget = Inputs.budget seed in
  let work, dir, cache = setup seed in
  let o = Tuner.counting_alloc (fun () -> compile ~budget cache work) in
  let reference = Hashtbl.create 1024 in
  let _, plans = reload ~budget ~dir ~reference work in
  let plain_cache = Plan_cache.create ~dir:(Util.fresh_dir "replay") () in
  let traced_cache = Plan_cache.create ~dir:(Util.fresh_dir "traced") () in
  let plain_plans = Hashtbl.create 1024 and traced_plans = Hashtbl.create 1024 in
  List.iter
    (fun w ->
      ignore
        (Trace.ab
           ~untraced:(fun () -> replay_item ~budget plain_cache plain_plans w)
           ~traced:(fun () -> replay_item ~budget traced_cache traced_plans w)))
    work;
  Util.attempt
    (Hashtbl.length reference = Hashtbl.length traced_plans
    && Hashtbl.fold
         (fun fp text ok -> ok && Hashtbl.find_opt traced_plans fp = Some text)
         reference true)
    (lazy "the traced compile chose other plans than the untraced one");
  let c = Tuner.counts in
  Util.attempt
    (c.Tuner.stages = o.stages && c.Tuner.unique = o.unique && c.Tuner.hits = o.hits)
    (lazy "the traced compile deduplicated differently");
  Inputs.verify_small ~count:1 (Rng.create seed) o.ops;
  let frames, server = serve_plans ~budget ~dir ~reference (Rng.create seed) work in
  Layers.metrics ~gc_alloc_mb:!Tuner.alloc_mb ~obs_records:0
    ~overhead_pct:(Trace.overhead_pct ())
    ~rungs:(Ladder.rungs ~budget plans frames)
    ~server
