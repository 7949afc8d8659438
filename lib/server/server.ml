open Amos
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Migrate = Amos_service.Migrate
module Batch_compile = Amos_service.Batch_compile
module Clock = Amos_service.Clock
module Fs_io = Amos_service.Fs_io
module Ops = Amos_workloads.Ops
module Suites = Amos_workloads.Suites
module Resnet = Amos_workloads.Resnet
module Networks = Amos_workloads.Networks

let log_src = Logs.Src.create "amos.server" ~doc:"AMOS plan-serving daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  socket_path : string option;
  tcp : (string * int) option;
  auth_token : string option;
  handshake_timeout_s : float;
  cache_dir : string option;
  workers : int;
  queue_capacity : int;
  jobs : int;
  hot_capacity : int;
  hot_max_bytes : int option;
  max_bytes : int option;
  max_tuning_seconds : float option;
  io_timeout_s : float;
  net : Net_io.t;
}

let default_config ~socket_path =
  {
    socket_path = Some socket_path;
    tcp = None;
    auth_token = None;
    handshake_timeout_s = 5.;
    cache_dir = None;
    workers = 2;
    queue_capacity = 8;
    jobs = 1;
    hot_capacity = 128;
    hot_max_bytes = None;
    max_bytes = None;
    max_tuning_seconds = None;
    io_timeout_s = 30.;
    net = Net_io.default;
  }

type tune_outcome = { value : Plan_cache.value; evaluations : int }

(* [progress] arrives as a plain option (not an optional argument) so
   the fully-labelled [tuner] shape stays erasure-free: it feeds the
   per-generation streaming frames, and raises [Explore.Aborted] once
   the last waiter has detached *)
type tuner =
  jobs:int ->
  accel:Accelerator.t ->
  op:Amos_ir.Operator.t ->
  budget:Fingerprint.budget ->
  seeds:Explore.candidate list ->
  progress:(Explore.progress -> unit) option ->
  tune_outcome

(* what a tune job returns to every waiter of its flight *)
type flight_result =
  | Fl_plan of Protocol.tune_reply
  | Fl_busy of float
  | Fl_error of string

type route = [ `Local | `Reply of Protocol.response | `Fallback of string ]

type router =
  fingerprint:string -> deadline_ms:int option -> Protocol.request -> route

type listener_kind = L_unix | L_tcp

(* a wire request's (accelerator name, op spec, budget) *)
type spec = string * Protocol.op_spec * Fingerprint.budget

type resolved = {
  accel : Accelerator.t;
  op : Amos_ir.Operator.t;
  fingerprint : string;
}

type t = {
  config : config;
  tuner : tuner;
  clock : Clock.t;
  listeners : (listener_kind * Unix.file_descr) list;
  bound_tcp_port : int option;
  cache : Plan_cache.t;  (* guarded by cache_mu: one domain at a time *)
  cache_mu : Mutex.t;
  admission : (flight_result, Protocol.progress_body) Admission.t;
      (* the one tuning table: each fingerprint's flight and its
         waiters, per-client DRR, deadline-aware admission, and the
         worker domains, at most [workers], it spawns to run what it
         admits *)
  started_at : float;
  mu : Mutex.t;  (* guards everything below *)
  hot : Protocol.plan_wire Hot_cache.t;
  presets : (string, Accelerator.t) Hashtbl.t;
      (* each preset name resolved once: every memo entry of one preset
         shares one accelerator value *)
  memo : (spec, resolved) Hashtbl.t;
      (* the request memo: a repeated spec skips [Accelerator.by_name],
         parsing and fingerprinting; the idle drain also finds a
         quarantined fingerprint's spec here *)
  mutable router : router option;
      (* installed after [create] (the fleet needs the bound TCP port
         to build its ring), consulted after both local layers miss *)
  mutable conn_counter : int;  (* distinct admission keys per connection *)
  mutable handlers : int;  (* live connection-handler threads *)
  handlers_done : Condition.t;  (* signalled when [handlers] drops to 0 *)
  mutable stopped : bool;  (* accept loop must exit *)
  mutable requests : int;
  mutable tunes : int;
  mutable deduped : int;
  mutable hot_hits : int;
  mutable cache_hits : int;
  mutable busy_rejections : int;
  mutable quarantine_retunes : int;
  mutable forwarded : int;
  mutable peer_hits : int;
  mutable peer_fallbacks : int;
  mutable budget_fallbacks : int;
  mutable auth_rejections : int;
  mutable deadline_rejections : int;
  mutable cancels : int;
}

(* Deadline budgeting for the one fleet hop: the forward subtracts the
   time this daemon already spent plus a fixed margin for the hop's own
   framing, so the peer always observes a strictly smaller budget than
   the client sent; a budget that cannot pay for the margin and a
   minimum useful hop skips the fleet entirely and tunes locally. *)
let forward_margin_ms = 5
let min_forward_budget_ms = 25

(* bound the request memo: a daemon fed unbounded distinct operators
   must not grow memory without limit.  Specs are admitted while fewer
   than this many are held and are never evicted. *)
let spec_ledger_capacity = 512

(* DRR weight of the shared "peer" admission key: a forwarding daemon
   aggregates many end clients behind one connection, so it earns a
   larger service share than a single direct client *)
let peer_weight = 2

let locked mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* --- default tuner -------------------------------------------------- *)

(* [model] / [observe] arrive as plain options (not optional arguments)
   so the fully-labelled [tuner] shape stays erasure-free *)
let default_tuner_with ~model ~observe ~jobs ~accel ~op ~budget ~seeds
    ~progress =
  let value, evaluations =
    Batch_compile.tune_fresh ~seeds ?model ?observe ?progress
      ~jobs:(Some jobs) ~budget accel op
  in
  { value; evaluations }

let default_tuner ~jobs ~accel ~op ~budget ~seeds ~progress =
  default_tuner_with ~model:None ~observe:None ~jobs ~accel ~op ~budget ~seeds
    ~progress

(* --- request resolution -------------------------------------------- *)

let resolve_op = function
  | Protocol.Layer label -> (
      match Resnet.by_label (String.uppercase_ascii label) with
      | c -> Resnet.config c
      | exception Not_found -> failwith ("unknown layer " ^ label))
  | Protocol.Kind { kind; batch; index } -> (
      let k = Ops.kind_of_name kind in
      match
        if index < 0 then None
        else List.nth_opt (Suites.configs_per_kind ~batch k) index
      with
      | Some op -> op
      | None -> failwith (Printf.sprintf "no config %d for kind %s" index kind))
  | Protocol.Dsl_text text -> (
      match Amos_ir.Dsl.parse ~name:"wire-op" text with
      | Ok op -> op
      | Error msg -> failwith ("operator DSL: " ^ msg))

let wire_of_value = function
  | Plan_cache.Scalar -> Protocol.Wire_scalar
  | Plan_cache.Spatial (m, sched) -> Protocol.Wire_spatial (Plan_io.save m sched)

(* --- hot cache ------------------------------------------------------ *)

(* wire-level footprint of a hot entry; scalar markers are tiny but must
   not be free, or a flood of them would never trigger eviction *)
let wire_bytes = function
  | Protocol.Wire_scalar -> 32
  | Protocol.Wire_spatial text -> String.length text

let hot_lookup t fingerprint =
  locked t.mu (fun () ->
      match Hot_cache.find t.hot fingerprint with
      | Some plan ->
          t.hot_hits <- t.hot_hits + 1;
          Some plan
      | None -> None)

let hot_put t fingerprint plan ~tuning_seconds =
  locked t.mu (fun () ->
      Hot_cache.put t.hot fingerprint plan ~bytes:(wire_bytes plan)
        ~tuning_seconds)

(* the tuning cost a cache-served plan amortizes, for hot admission *)
let cached_tuning_seconds t fingerprint =
  locked t.cache_mu (fun () ->
      match Plan_cache.info t.cache ~fingerprint with
      | Some it -> it.Amos_service.Retain.tuning_seconds
      | None -> Amos_service.Retain.default_tuning_seconds)

(* --- request memo ----------------------------------------------------- *)

let preset t name =
  locked t.mu (fun () ->
      match Hashtbl.find_opt t.presets name with
      | Some accel -> accel
      | None -> (
          match Accelerator.by_name name with
          | None -> failwith ("unknown accelerator " ^ name)
          | Some accel ->
              Hashtbl.add t.presets name accel;
              accel))

(* A failed resolution raises before anything is memoized, so an unknown
   accelerator, bad DSL or a bad [Kind] spec is re-resolved (and fails
   again) every time. *)
let resolve t ((accel_name, op_spec, budget) as spec) =
  match locked t.mu (fun () -> Hashtbl.find_opt t.memo spec) with
  | Some r -> r
  | None ->
      let accel = preset t accel_name in
      let op = resolve_op op_spec in
      let r = { accel; op; fingerprint = Fingerprint.key ~accel ~op ~budget } in
      locked t.mu (fun () ->
          if
            (not (Hashtbl.mem t.memo spec))
            && Hashtbl.length t.memo < spec_ledger_capacity
          then Hashtbl.add t.memo spec r);
      r

(* --- creation ------------------------------------------------------- *)

let create ?tuner ?clock ?router config =
  let clock = match clock with Some c -> c | None -> Clock.real () in
  let tuner =
    match tuner with
    | Some t -> t
    | None -> (
        match config.cache_dir with
        | None -> default_tuner
        | Some dir -> (
            (* a persistent daemon feeds the learned cost model: every
               simulator measurement lands in the observation log next
               to the plans, and a fitted model file (if present) turns
               on the calibrated screen *)
            match Amos_learn.Obs_log.create ~clock ~dir () with
            | exception e ->
                Log.warn (fun m ->
                    m "observation log unavailable (%s); tuning without it"
                      (Printexc.to_string e));
                default_tuner
            | obs_log ->
                let model_path =
                  Filename.concat dir Amos_learn.Calibrate.file_name
                in
                fun ~jobs ~accel ~op ~budget ~seeds ~progress ->
                  let fingerprint = Fingerprint.key ~accel ~op ~budget in
                  let observe =
                    Some
                      (Amos_learn.Obs_log.observer obs_log
                         ~config:accel.Accelerator.config ~fingerprint
                         ~accel:accel.Accelerator.name)
                  in
                  let model =
                    if Fs_io.exists (Fs_io.real ()) model_path then
                      match Amos_learn.Calibrate.load ~path:model_path () with
                      | m -> Some (Amos_learn.Screen.of_model ~accel m)
                      | exception e ->
                          Log.warn (fun m ->
                              m "model file %s unusable (%s); screening \
                                 uncalibrated"
                                model_path (Printexc.to_string e));
                          None
                    else None
                  in
                  default_tuner_with ~model ~observe ~jobs ~accel ~op ~budget
                    ~seeds ~progress))
  in
  (* a client dying mid-reply must surface as EPIPE on the write, not
     kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let listeners =
    let close_all ls =
      List.iter (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ()) ls
    in
    let unix_ls =
      match config.socket_path with
      | None -> []
      | Some path -> [ (L_unix, Transport.listen (Transport.Unix_path path)) ]
    in
    let tcp_ls =
      match config.tcp with
      | None -> []
      | Some (host, port) -> (
          match Transport.listen (Transport.Tcp { host; port }) with
          | fd -> [ (L_tcp, fd) ]
          | exception e ->
              close_all unix_ls;
              raise e)
    in
    match unix_ls @ tcp_ls with
    | [] -> invalid_arg "Server.create: no listener (need socket_path or tcp)"
    | ls -> ls
  in
  let bound_tcp_port =
    List.find_map
      (fun (kind, fd) ->
        if kind = L_tcp then Transport.bound_port fd else None)
      listeners
  in
  let cache =
    Plan_cache.create ?max_bytes:config.max_bytes
      ?max_tuning_seconds:config.max_tuning_seconds ~clock
      ?dir:config.cache_dir ()
  in
  let admission =
    Admission.create ~clock
      ~weight_of:(fun key -> if key = "peer" then peer_weight else 1)
      ~workers:(max 1 config.workers)
      ~capacity:(max 1 config.queue_capacity) ()
  in
  (* every listener is bound: from here a submit spawns a tuning worker
     when the backlog needs one, and the accept loop's tick retires it *)
  Admission.start admission;
  {
    config;
    tuner;
    clock;
    listeners;
    bound_tcp_port;
    cache;
    cache_mu = Mutex.create ();
    admission;
    started_at = Clock.now clock;
    mu = Mutex.create ();
    hot =
      Hot_cache.create ?max_bytes:config.hot_max_bytes
        ~capacity:config.hot_capacity ~clock ();
    presets = Hashtbl.create 16;
    memo = Hashtbl.create 64;
    router;
    conn_counter = 0;
    handlers = 0;
    handlers_done = Condition.create ();
    stopped = false;
    requests = 0;
    tunes = 0;
    deduped = 0;
    hot_hits = 0;
    cache_hits = 0;
    busy_rejections = 0;
    quarantine_retunes = 0;
    forwarded = 0;
    peer_hits = 0;
    peer_fallbacks = 0;
    budget_fallbacks = 0;
    auth_rejections = 0;
    deadline_rejections = 0;
    cancels = 0;
  }

let set_router t router = locked t.mu (fun () -> t.router <- Some router)
let tcp_port t = t.bound_tcp_port

let stats t : Protocol.server_stats =
  let queue_load = Admission.load t.admission in
  let in_flight = Admission.in_flight t.admission in
  let cache_bytes =
    locked t.cache_mu (fun () -> Plan_cache.disk_bytes t.cache)
  in
  locked t.mu (fun () ->
      {
        Protocol.uptime_s = Clock.now t.clock -. t.started_at;
        requests = t.requests;
        tunes = t.tunes;
        deduped = t.deduped;
        hot_hits = t.hot_hits;
        cache_hits = t.cache_hits;
        busy_rejections = t.busy_rejections;
        in_flight;
        queue_load;
        hot_bytes = Hot_cache.bytes t.hot;
        hot_tuning_seconds = Hot_cache.tuning_seconds t.hot;
        cache_bytes;
        quarantine_retunes = t.quarantine_retunes;
        forwarded = t.forwarded;
        peer_hits = t.peer_hits;
        peer_fallbacks = t.peer_fallbacks;
        budget_fallbacks = t.budget_fallbacks;
        auth_rejections = t.auth_rejections;
        deadline_rejections = t.deadline_rejections;
        cancels = t.cancels;
      })

(* --- tuning flow ---------------------------------------------------- *)

let retry_hint t = 0.1 +. (0.05 *. float_of_int (Admission.load t.admission))

let response_of_flight ~deduped = function
  | Fl_plan r ->
      Protocol.Plan_r (if deduped then { r with Protocol.source = "deduped" } else r)
  | Fl_busy retry_after_s -> Protocol.Busy_r { retry_after_s }
  | Fl_error msg -> Protocol.Error_r msg

let progress_body (p : Explore.progress) : Protocol.progress_body =
  let known v = if Float.is_finite v then Some v else None in
  {
    Protocol.pg_generation = p.Explore.pr_generation;
    pg_best_predicted = known p.Explore.pr_best_predicted;
    pg_best_measured = known p.Explore.pr_best_measured;
    pg_evaluations = p.Explore.pr_evaluations;
  }

(* Collect a waiter's outcome.  A streaming waiter drains its progress
   queue through [emit] — one [Progress_r] frame per snapshot, written
   from this connection's own thread, so a dead or slow socket stalls
   only itself; an emit failure detaches the waiter and returns [None],
   which closes the connection without a final reply.  Either way the
   shared flight is untouched: co-waiters keep streaming, and only the
   {e last} detach raises the exploration's abort flag. *)
let await_flight t ~emit ~deduped w =
  let finish resp =
    ignore (Admission.detach t.admission w);
    resp
  in
  let rec loop () =
    match Admission.next t.admission w with
    | `Progress p ->
        if emit (Protocol.Progress_r p) then loop () else finish None
    | `Done r -> finish (Some (response_of_flight ~deduped r))
    | `Failed e ->
        (* [tune_task] answers the tuner's own failures itself; this is
           a raise from the bookkeeping after it *)
        finish
          (Some (Protocol.Error_r ("tuning failed: " ^ Printexc.to_string e)))
    | `Cancelled -> finish (Some Protocol.Cancelled_r)
  in
  loop ()

let cache_lookup t ~accel ~op ~budget =
  locked t.cache_mu (fun () ->
      match Plan_cache.lookup t.cache ~accel ~op ~budget with
      | v -> v
      | exception _ -> None)

(* the migration a [Migrate_tune] seeds from, found as [tune
   --migrate-from auto] finds it *)
let migration_for t ~accel ~op ~budget =
  locked t.cache_mu (fun () ->
      try Migrate.from_cache t.cache ~accel ~op ~budget with _ -> None)

(* a plan served without tuning *)
let served fingerprint plan source =
  Protocol.Plan_r
    {
      Protocol.fingerprint;
      plan;
      source;
      evaluations = 0;
      tuning_seconds = 0.;
    }

(* The local tiers a [Lookup] or [Tune] climbs first: the hot cache,
   then the plan cache, whose hit is re-admitted to the hot tier at the
   tuning cost it amortizes.  [None] when both miss. *)
let local_plan t { accel; op; fingerprint } ~budget =
  match hot_lookup t fingerprint with
  | Some plan -> Some (served fingerprint plan "hot")
  | None -> (
      match cache_lookup t ~accel ~op ~budget with
      | Some value ->
          let plan = wire_of_value value in
          locked t.mu (fun () -> t.cache_hits <- t.cache_hits + 1);
          hot_put t fingerprint plan
            ~tuning_seconds:(cached_tuning_seconds t fingerprint);
          Some (served fingerprint plan "cache")
      | None -> None)

(* [deadline] is [(deadline_ms, arrival)] from the request envelope:
   the budget the client sent and the clock reading when the frame was
   decoded.  [left_ms] is what this daemon's own elapsed time leaves of
   it. *)
let left_ms t (d, arrival) =
  d - int_of_float (Float.max 0. (Clock.now t.clock -. arrival) *. 1000.)

(* The hop may spend only what is left after the forwarding margin. *)
let remaining_budget t ~deadline =
  match deadline with
  | None -> `No_deadline
  | Some dl ->
      let remaining = left_ms t dl - forward_margin_ms in
      if remaining < min_forward_budget_ms then `Exhausted
      else `Remaining remaining

(* Consult the fleet router after both local layers miss.  [None] means
   "take the local path": no router is installed, the ring says this
   daemon owns the fingerprint, the request already crossed one hop
   (forwarded requests are never forwarded again, so two daemons with
   disagreeing rings cannot bounce a request between them), or the
   owner could not serve it (down, busy, erroring) — owner failure
   degrades to local work, never to a client-visible error.  A plan the
   owner served is re-admitted into the hot cache so the next request
   for it is local. *)
let route_to_owner t ~from_peer ~deadline ~fingerprint req =
  if from_peer then None
  else
    match locked t.mu (fun () -> t.router) with
    | None -> None
    | Some route -> (
        match remaining_budget t ~deadline with
        | `Exhausted ->
            locked t.mu (fun () ->
                t.budget_fallbacks <- t.budget_fallbacks + 1);
            Log.info (fun m ->
                m "deadline budget too small to forward %s: serving locally"
                  fingerprint);
            None
        | (`No_deadline | `Remaining _) as budget -> (
        let deadline_ms =
          match budget with `Remaining r -> Some r | `No_deadline -> None
        in
        match route ~fingerprint ~deadline_ms req with
        | `Local -> None
        | `Fallback reason ->
            locked t.mu (fun () -> t.peer_fallbacks <- t.peer_fallbacks + 1);
            Log.info (fun m ->
                m "owner unavailable for %s (%s): serving locally"
                  fingerprint reason);
            None
        | `Reply (Protocol.Plan_r r) ->
            (* a forwarded answer carries tuning cost only when the
               owner tuned just now; a hot/cache hit arrives with 0 and
               is admitted at the conservative default *)
            let tuning_seconds =
              if r.Protocol.tuning_seconds > 0. then r.Protocol.tuning_seconds
              else Amos_service.Retain.default_tuning_seconds
            in
            hot_put t fingerprint r.Protocol.plan ~tuning_seconds;
            locked t.mu (fun () ->
                t.forwarded <- t.forwarded + 1;
                t.peer_hits <- t.peer_hits + 1);
            Some (Protocol.Plan_r { r with Protocol.source = "peer" })
        | `Reply Protocol.Not_found_r ->
            locked t.mu (fun () -> t.forwarded <- t.forwarded + 1);
            Some Protocol.Not_found_r
        | `Reply _ ->
            (* the owner answered but could not serve (busy, error) *)
            locked t.mu (fun () ->
                t.forwarded <- t.forwarded + 1;
                t.peer_fallbacks <- t.peer_fallbacks + 1);
            None
        | exception e ->
            locked t.mu (fun () -> t.peer_fallbacks <- t.peer_fallbacks + 1);
            Log.warn (fun m ->
                m "fleet routing failed for %s: %s" fingerprint
                  (Printexc.to_string e));
            None))

(* The one job behind every exploration the daemon runs: time the
   tuner, store the plan, admit it to the hot tier and return what the
   flight resolves to.  A client tune ([quarantined = false]) fans each
   generation's snapshot out to the flight's streaming waiters, and its
   progress hook raises [Explore.Aborted] instead once the last waiter
   has detached: the exploration tears itself down at that generation
   boundary and the flight resolves busy, so a racing joiner retries
   fresh.  A quarantine retune streams nothing and, once the fresh plan
   is stored, removes the fingerprint's quarantined copy.  A tune seeded
   by a [migration] stores its source as the plan's provenance. *)
let tune_task t ~quarantined { accel; op; fingerprint } ~budget ~migration fl =
  let seeds = match migration with Some o -> o.Migrate.seeds | None -> [] in
  let progress =
    if quarantined then None
    else
      Some
        (fun p ->
          if Admission.abort_requested fl then raise Explore.Aborted;
          Admission.publish t.admission fl (progress_body p))
  in
  let t0 = Clock.now t.clock in
  match t.tuner ~jobs:t.config.jobs ~accel ~op ~budget ~seeds ~progress with
  | { value; evaluations } ->
      let dt = Clock.now t.clock -. t0 in
      locked t.cache_mu (fun () ->
          (try
             Plan_cache.store
               ?provenance:(Option.map Migrate.provenance migration)
               t.cache ~accel ~op ~budget ~tuning_seconds:dt value
           with e ->
             Log.warn (fun m ->
                 m "plan store failed for %s: %s" fingerprint
                   (Printexc.to_string e)));
          (* only after a good plan is back in the cache does the
             quarantined copy stop being post-mortem material *)
          if quarantined then begin
            Plan_cache.unquarantine t.cache fingerprint;
            Log.info (fun m ->
                m "re-tuned quarantined fingerprint %s" fingerprint)
          end);
      let plan = wire_of_value value in
      hot_put t fingerprint plan ~tuning_seconds:dt;
      let source =
        locked t.mu (fun () ->
            if quarantined then begin
              t.quarantine_retunes <- t.quarantine_retunes + 1;
              "retuned"
            end
            else begin
              t.tunes <- t.tunes + 1;
              "tuned"
            end)
      in
      Fl_plan
        { Protocol.fingerprint; plan; source; evaluations; tuning_seconds = dt }
  | exception Explore.Aborted -> Fl_busy (retry_hint t)
  | exception e ->
      let failed = if quarantined then "retune failed: " else "tuning failed: " in
      Fl_error (failed ^ Printexc.to_string e)

let handle_tune t ~from_peer ~client ~env ~emit ~deadline req
    ((_, _, budget) as spec) =
  let ({ accel; op; fingerprint } as r) = resolve t spec in
  match local_plan t r ~budget with
  | Some _ as hit ->
      (* a local hit streams nothing: the final reply is the only frame *)
      hit
  | None -> (
      match route_to_owner t ~from_peer ~deadline ~fingerprint req with
      | Some (Protocol.Plan_r _) as forwarded -> forwarded
      | Some _ | None -> (
          (* seeds are gathered before the submit, so the worker touches
             the shared cache only for the final store; a request that
             joins a live flight discards its own *)
          let migration =
            match req with
            | Protocol.Migrate_tune _ -> migration_for t ~accel ~op ~budget
            | _ -> None
          in
          let deadline_ms =
            Option.map (fun dl -> max 0 (left_ms t dl)) deadline
          in
          match
            Admission.submit t.admission ~client ~key:fingerprint ?deadline_ms
              ~streaming:env.Protocol.env_accept_stream
              ?request_id:env.Protocol.env_request_id
              (tune_task t ~quarantined:false r ~budget ~migration)
          with
          | `Joined w ->
              locked t.mu (fun () -> t.deduped <- t.deduped + 1);
              await_flight t ~emit ~deduped:true w
          | `Admitted w -> await_flight t ~emit ~deduped:false w
          | `Busy ->
              (* admission control (or a draining daemon): refuse with a
                 retry hint *)
              locked t.mu (fun () ->
                  t.busy_rejections <- t.busy_rejections + 1);
              Some (Protocol.Busy_r { retry_after_s = retry_hint t })
          | `Deadline projected_wait_s ->
              (* the queue's projected wait already exceeds the request's
                 budget: refused before enqueueing, with the evidence —
                 never camped *)
              locked t.mu (fun () ->
                  t.deadline_rejections <- t.deadline_rejections + 1);
              Some (Protocol.Deadline_hint_r { projected_wait_s })))

let handle_lookup t ~from_peer ~deadline req ((_, _, budget) as spec) =
  let r = resolve t spec in
  match local_plan t r ~budget with
  | Some hit -> hit
  | None -> (
      (* the owner is authoritative for its fingerprints: its plan is
         served, its miss is a miss, and an unreachable owner degrades
         to the local answer — also a miss here *)
      match
        route_to_owner t ~from_peer ~deadline ~fingerprint:r.fingerprint req
      with
      | Some (Protocol.Plan_r _ as forwarded) -> forwarded
      | Some _ | None -> Protocol.Not_found_r)

let handle_compile t ~accel:accel_name ~network ~batch ~budget ~jobs =
  let accel = preset t accel_name in
  let net =
    let wanted = String.lowercase_ascii network in
    match
      List.find_opt
        (fun (n : Networks.t) ->
          String.lowercase_ascii n.Networks.name = wanted)
        (Networks.all ~batch)
    with
    | Some n -> n
    | None -> failwith ("unknown network " ^ network)
  in
  (* own handle over the same directory: long compiles stay off the
     shared handle (and the tuning workers); handles see each other's
     stores through the journal.  Same budgets and clock, so the
     economy is enforced no matter which handle stored last. *)
  let cache =
    Plan_cache.create ?max_bytes:t.config.max_bytes
      ?max_tuning_seconds:t.config.max_tuning_seconds ~clock:t.clock
      ?dir:t.config.cache_dir ()
  in
  let jobs = max 1 (min 8 jobs) in
  let net_report, svc_report =
    Batch_compile.compile_network ~jobs ~budget ~cache accel net
  in
  Protocol.Compiled_r
    {
      Protocol.network = net_report.Compiler.network_name;
      total_ops = net_report.Compiler.total_ops;
      mapped_ops = net_report.Compiler.mapped_ops;
      network_seconds = net_report.Compiler.network_seconds;
      stages = svc_report.Batch_compile.tensor_stages;
      comp_cache_hits = svc_report.Batch_compile.cache_hits;
      comp_tuned = svc_report.Batch_compile.cache_misses;
    }

(* --- quarantined-fingerprint retune --------------------------------- *)

(* queue a re-tune of one quarantined fingerprint; [false] when the
   queue refuses it or another flight already owns the fingerprint *)
let retune_quarantined t r ~budget =
  match
    Admission.submit t.admission ~client:"retune" ~key:r.fingerprint
      (tune_task t ~quarantined:true r ~budget ~migration:None)
  with
  | `Admitted _ ->
      (* the drain's own waiter stays attached (never detached) so the
         abort flag cannot rise under a retune nobody is watching *)
      true
  | `Joined w ->
      (* a client-driven tune is already producing it; withdraw the
         interest this probe just registered *)
      ignore (Admission.detach t.admission w);
      false
  | `Busy | `Deadline _ -> false

(* One low-priority step of the background drain: only when the tuning
   queue is idle, pick the first quarantined fingerprint whose
   specification a client request has taught us and re-tune it.  The
   cache itself lists the quarantined fingerprints, sweeping those
   superseded by a live record. *)
let drain_quarantined_once t =
  if Option.is_none t.config.cache_dir then false
  else if Admission.load t.admission > 0 then false
  else
    let spec fp =
      locked t.mu (fun () ->
          Hashtbl.to_seq t.memo
          |> Seq.find_map (fun ((_, _, budget), r) ->
                 if r.fingerprint = fp then Some (r, budget) else None))
    in
    locked t.cache_mu (fun () -> Plan_cache.quarantined t.cache)
    |> List.exists (fun fp ->
           match spec fp with
           | None -> false (* never seen its spec: leave it *)
           | Some (r, budget) -> retune_quarantined t r ~budget)

(* --- shutdown ------------------------------------------------------- *)

let drain_and_stop t =
  if not (locked t.mu (fun () -> t.stopped)) then
    Log.info (fun m -> m "draining: waiting for in-flight tuning to finish");
  (* from here every submit is refused, and every admitted job still
     completes before the workers are joined *)
  Admission.close t.admission;
  locked t.mu (fun () -> t.stopped <- true)

let stop t = drain_and_stop t

(* --- dispatch ------------------------------------------------------- *)

(* [emit] writes one interleaved response frame on the requesting
   connection, returning [false] when the socket is gone.  A [None]
   final response means the connection desynced mid-stream and must be
   dropped without another frame. *)
let dispatch t ~from_peer ~client ~emit payload =
  locked t.mu (fun () -> t.requests <- t.requests + 1);
  (* a request that fails to resolve or to serve (unknown accelerator,
     bad DSL, a raising compile) answers a typed error *)
  let answer f =
    match f () with
    | r -> (r, false)
    | exception Failure msg -> (Some (Protocol.Error_r msg), false)
    | exception e -> (Some (Protocol.Error_r (Printexc.to_string e)), false)
  in
  match Protocol.decode_request payload with
  | Error msg -> (Some (Protocol.Error_r msg), false)
  | Ok (req, env) -> (
      (* the envelope budget starts burning the moment the frame is
         decoded: everything this daemon spends before a forward is
         subtracted from what the peer hop may use *)
      let deadline =
        Option.map
          (fun d -> (d, Clock.now t.clock))
          env.Protocol.env_deadline_ms
      in
      match req with
      | Protocol.Health ->
          ( Some
              (Protocol.Ok_r
                 (Printf.sprintf "amosd protocol v%d" Protocol.version)),
            false )
      | Protocol.Stats -> (Some (Protocol.Stats_r (stats t)), false)
      | Protocol.Shutdown ->
          drain_and_stop t;
          (Some (Protocol.Ok_r "drained"), true)
      | Protocol.Cancel { request_id } ->
          (* cancel the named waiter (usually on another connection):
             its stream terminates with [Cancelled_r]; the shared
             flight keeps running for its co-waiters *)
          if Admission.cancel t.admission request_id then begin
            locked t.mu (fun () -> t.cancels <- t.cancels + 1);
            (Some (Protocol.Ok_r "cancelled"), false)
          end
          else (Some Protocol.Not_found_r, false)
      | Protocol.Lookup { accel; op; budget } ->
          answer (fun () ->
              Some
                (handle_lookup t ~from_peer ~deadline req (accel, op, budget)))
      | Protocol.Tune { accel; op; budget }
      | Protocol.Migrate_tune { accel; op; budget } ->
          answer (fun () ->
              handle_tune t ~from_peer ~client ~env ~emit ~deadline req
                (accel, op, budget))
      | Protocol.Compile { accel; network; batch; budget; jobs } ->
          answer (fun () ->
              Some (handle_compile t ~accel ~network ~batch ~budget ~jobs)))

(* --- connections ---------------------------------------------------- *)

let send_response t fd resp =
  match
    Protocol.write_frame ~net:t.config.net fd (Protocol.encode_response resp)
  with
  | () -> true
  | exception (Unix.Unix_error _ | Sys_error _) -> false

(* TCP connections must introduce themselves before the first request:
   the hello carries the protocol version and the shared token, and a
   connection failing either check gets a typed denial — never a hang,
   never a misparsed request.  The whole exchange runs under its own
   short receive deadline so an unauthenticated peer that connects and
   goes silent cannot hold the accept slot open.  Returns the declared
   origin ([true] = another daemon) on success, [None] when the
   connection must be dropped.  The hello is read through the
   connection's [reader], which the request loop goes on using: a
   client that sends its first request in the same write as its hello
   loses nothing. *)
let handshake t reader fd =
  (try
     Unix.setsockopt_float fd Unix.SO_RCVTIMEO
       (Float.max 0.05 t.config.handshake_timeout_s)
   with Unix.Unix_error _ -> ());
  let deny reason =
    locked t.mu (fun () -> t.auth_rejections <- t.auth_rejections + 1);
    Log.info (fun m -> m "handshake denied: %s" reason);
    (try
       Protocol.write_frame ~net:t.config.net fd
         (Protocol.encode_hello_reply (Protocol.Hello_denied reason))
     with Unix.Unix_error _ | Sys_error _ -> ());
    None
  in
  match Protocol.read_frame reader with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      deny "handshake deadline exceeded"
  | exception (Unix.Unix_error _ | Sys_error _) -> None
  | Error `Eof -> None
  | Error (`Bad msg) -> deny ("bad hello frame: " ^ msg)
  | Ok payload -> (
      match Protocol.decode_hello payload with
      | Error msg -> deny ("handshake required: " ^ msg)
      | Ok h ->
          if h.Protocol.hello_version <> Protocol.version then
            deny
              (Printf.sprintf "unsupported protocol version %d (want %d)"
                 h.Protocol.hello_version Protocol.version)
          else if
            not
              (Auth.equal
                 (Option.value t.config.auth_token ~default:"")
                 h.Protocol.token)
          then deny "bad auth token"
          else (
            match
              Protocol.write_frame ~net:t.config.net fd
                (Protocol.encode_hello_reply Protocol.Hello_ok)
            with
            | () -> Some h.Protocol.peer
            | exception (Unix.Unix_error _ | Sys_error _) -> None))

let handle_conn t kind fd =
  let reader = Protocol.reader ~net:t.config.net fd in
  let admitted =
    match kind with
    (* the Unix socket is the local trusted path: same-host clients
       keep working unchanged, with no handshake and no forwarding
       restrictions *)
    | L_unix -> Some false
    | L_tcp -> handshake t reader fd
  in
  match admitted with
  | None -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | Some from_peer ->
      (* the receive timeout turns an idle connection into a periodic
         stopping-flag check, so shutdown never waits on a silent
         client; the send timeout bounds how long a reply may block on
         a client that stopped draining *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.5
       with Unix.Unix_error _ -> ());
      (try
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO
           (Float.max 0.05 t.config.io_timeout_s)
       with Unix.Unix_error _ -> ());
      (* the admission key: peers pool under one weighted backlog;
         every local connection gets its own, so DRR fairness is
         per-connection *)
      let client =
        if from_peer then "peer"
        else
          locked t.mu (fun () ->
              t.conn_counter <- t.conn_counter + 1;
              Printf.sprintf "c%d" t.conn_counter)
      in
      let emit resp = send_response t fd resp in
      let rec loop () =
        match Protocol.read_frame reader with
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            (* the reader keeps any part of a frame read so far: the
               next call resumes it *)
            if locked t.mu (fun () -> t.stopped) then () else loop ()
        | exception (Unix.Unix_error _ | Sys_error _) -> ()
        | Error `Eof -> ()
        | Error (`Bad msg) ->
            (* framing is broken: answer once, then drop the connection —
               resynchronising on a corrupt stream is guesswork *)
            ignore (send_response t fd (Protocol.Error_r ("bad frame: " ^ msg)))
        | Ok payload -> (
            match dispatch t ~from_peer ~client ~emit payload with
            | None, _ ->
                (* the stream desynced mid-flight (emit failed): the
                   connection is poisoned, drop it without a final frame *)
                ()
            | Some resp, close_after ->
                let sent = send_response t fd resp in
                if sent && not close_after then loop ())
      in
      (try loop ()
       with e ->
         Log.warn (fun m ->
             m "connection handler died: %s" (Printexc.to_string e)));
      (try Unix.close fd with Unix.Unix_error _ -> ())

let serve t =
  List.iter
    (fun (kind, fd) ->
      match kind with
      | L_unix ->
          Log.info (fun m ->
              m "amosd listening on %s"
                (Option.value t.config.socket_path ~default:"?"))
      | L_tcp ->
          Log.info (fun m ->
              m "amosd listening on tcp port %d"
                (Option.value (Transport.bound_port fd) ~default:0)))
    t.listeners;
  let listen_fds = List.map snd t.listeners in
  let kind_of lfd =
    match
      List.find_map
        (fun (kind, fd) -> if fd = lfd then Some kind else None)
        t.listeners
    with
    | Some kind -> kind
    | None -> L_unix
  in
  (* The loop's tick fires every [tick_s] of wall time, also while
     connections keep arriving: it ages the tuning table's idle workers,
     and every 8th tick whose interval accepted no connection (every
     couple of seconds of quiet) spends one worker slot re-tuning a
     quarantined fingerprint. *)
  let tick_s = 0.25 in
  let next_tick = ref (Unix.gettimeofday () +. tick_s) in
  let accepted = ref false in
  let quiet_ticks = ref 0 in
  let rec loop () =
    if locked t.mu (fun () -> t.stopped) then ()
    else begin
      let now = Unix.gettimeofday () in
      (* a wall clock set back fires the tick early instead of
         stalling it *)
      if now >= !next_tick || !next_tick -. now > tick_s then begin
        next_tick := now +. tick_s;
        Admission.tick t.admission;
        if not !accepted then begin
          incr quiet_ticks;
          if !quiet_ticks mod 8 = 0 then ignore (drain_quarantined_once t)
        end;
        accepted := false
      end;
      (match Unix.select listen_fds [] [] (!next_tick -. now) with
      | [], _, _ -> ()
      | ready, _, _ ->
          accepted := true;
          List.iter
            (fun lfd ->
              match Unix.accept ~cloexec:true lfd with
              | fd, _ ->
                  let kind = kind_of lfd in
                  locked t.mu (fun () -> t.handlers <- t.handlers + 1);
                  let handler () =
                    Fun.protect
                      ~finally:(fun () ->
                        locked t.mu (fun () ->
                            t.handlers <- t.handlers - 1;
                            if t.handlers = 0 then
                              Condition.broadcast t.handlers_done))
                      (fun () -> handle_conn t kind fd)
                  in
                  ignore (Thread.create handler ())
              | exception Unix.Unix_error _ -> ())
            ready
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  List.iter
    (fun (_, fd) -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.listeners;
  (match t.config.socket_path with
  | None -> ()
  | Some path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ()));
  locked t.mu (fun () ->
      while t.handlers > 0 do
        Condition.wait t.handlers_done t.mu
      done);
  Log.info (fun m -> m "amosd stopped")
