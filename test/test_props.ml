(* Property-based tests (QCheck) of the Algorithm-1 validation
   invariants, the mapping generator's contract, and plan migration.

   Deterministic by construction: the QCheck RNG is seeded from the
   QCHECK_SEED environment variable (default 421), so `dune runtest`
   reproduces bit-identically and CI exercises the generators under two
   different seeds without touching the code. *)

open Amos
open Amos_ir
module Ops = Amos_workloads.Ops
module Suites = Amos_workloads.Suites
module Rng = Amos_tensor.Rng
module Migrate = Amos_service.Migrate
module Recompute = Amos_reference.Recompute

let cases = 200

let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> 421)
  | None -> 421

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t

(* --- generators ----------------------------------------------------- *)

(* Random software iteration space, rendered through the DSL front-end:
   1-3 spatial iterations and 1-2 reductions with [extent]s; the output
   is indexed by every spatial iteration; each iteration lands in input
   a, input b, or both (so both inputs are non-empty and every reduction
   is accumulated by at least one input); optionally one
   convolution-style [i + r] fused index.  The statement multiplies
   ([Mul_add]), accumulates a alone ([Add_acc]; a then indexes every
   iteration either input used) or accumulates the squared difference
   ([Sq_diff_acc]), as [arith] draws. *)
let gen_op_with ~extent ~arith : Operator.t QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 3 >>= fun ns ->
  int_range 1 2 >>= fun nr ->
  list_repeat ns extent >>= fun s_exts ->
  list_repeat nr extent >>= fun r_exts ->
  list_repeat ns (int_range 0 2) >>= fun s_sides ->
  list_repeat nr (int_range 0 2) >>= fun r_sides ->
  bool >>= fun conv_style ->
  arith >>= fun arith ->
  let s_names = List.mapi (fun i _ -> Printf.sprintf "i%d" i) s_exts in
  let r_names = List.mapi (fun i _ -> Printf.sprintf "r%d" i) r_exts in
  let binders names exts suffix =
    String.concat ", "
      (List.map2 (fun n e -> Printf.sprintf "%s:%d%s" n e suffix) names exts)
  in
  (* side 0 -> input a only, 1 -> input b only, 2 -> both *)
  let side sides names which =
    List.filteri
      (fun i _ -> List.nth sides i = which || List.nth sides i = 2)
      names
  in
  let a_idx = side s_sides s_names 0 @ side r_sides r_names 0 in
  let b_idx = side s_sides s_names 1 @ side r_sides r_names 1 in
  let a_idx = if a_idx = [] then [ List.hd r_names ] else a_idx in
  let b_idx = if b_idx = [] then [ List.hd r_names ] else b_idx in
  let a_idx =
    match arith with
    | `Add_acc ->
        List.filter
          (fun n -> List.mem n a_idx || List.mem n b_idx)
          (s_names @ r_names)
    | `Mul_add | `Sq_diff -> a_idx
  in
  let a_idx =
    if conv_style then
      match a_idx with
      | x :: rest when List.mem x s_names ->
          Printf.sprintf "%s + %s" x (List.hd r_names) :: rest
      | _ -> a_idx
    else a_idx
  in
  let a = Printf.sprintf "a[%s]" (String.concat ", " a_idx)
  and b = Printf.sprintf "b[%s]" (String.concat ", " b_idx) in
  let rhs =
    match arith with
    | `Mul_add -> a ^ " * " ^ b
    | `Add_acc -> a
    | `Sq_diff -> Printf.sprintf "(%s - %s)^2" a b
  in
  return
    (Dsl.parse_exn ~name:"prop"
       (Printf.sprintf "for {%s} for {%s}: out[%s] += %s"
          (binders s_names s_exts "")
          (binders r_names r_exts "r")
          (String.concat ", " s_names)
          rhs))

(* multiply-accumulate operators with extents 2..6 *)
let gen_op =
  gen_op_with ~extent:(QCheck.Gen.int_range 2 6)
    ~arith:(QCheck.Gen.return `Mul_add)

let arb_op = QCheck.make ~print:Dsl.print gen_op

let intrinsic_pool () =
  [
    Intrinsic.wmma_16x16x16 ();
    Intrinsic.toy_mma_2x2x2 ();
    Intrinsic.avx512_vnni ();
    Intrinsic.mali_dot4 ();
    Intrinsic.gemv_unit ();
    Intrinsic.conv_unit ();
    Intrinsic.ascend_cube ();
  ]

(* A completely random compute matching: random intrinsic, random operand
   correspondence, and an arbitrary (mostly invalid) assignment of each
   software iteration to an intrinsic iteration or to none. *)
let gen_matching_of gen_op : Matching.t QCheck.Gen.t =
  let open QCheck.Gen in
  gen_op >>= fun op ->
  let pool = intrinsic_pool () in
  int_range 0 (List.length pool - 1) >>= fun which ->
  let intr = List.nth pool which in
  let view = Option.get (Mac_view.of_operator op) in
  let kiters = intr.Intrinsic.compute.Compute_abs.iters in
  bool >>= fun swap ->
  let src_perm = if swap then [| 1; 0 |] else [| 0; 1 |] in
  list_repeat (List.length op.Operator.iters)
    (int_range 0 (List.length kiters))
  >>= fun choices ->
  let assign =
    Array.of_list
      (List.map
         (fun c -> if c = 0 then None else Some (List.nth kiters (c - 1)))
         choices)
  in
  return (Matching.create ~view ~intr ~src_perm ~assign)

let gen_matching = gen_matching_of gen_op

let arb_matching =
  QCheck.make
    ~print:(fun (m : Matching.t) ->
      Printf.sprintf "%s on %s" (Matching.describe m)
        m.Matching.intr.Intrinsic.name)
    gen_matching

(* --- an independent Algorithm-1 implementation ----------------------- *)

(* Plain bool-array-array re-implementation of the boolean matrix
   algebra, sharing no code with [Bin_matrix]: the oracle the library's
   verdicts are checked against. *)
let to_arrays m =
  Array.init (Bin_matrix.rows m) (fun r ->
      Array.init (Bin_matrix.cols m) (fun c -> Bin_matrix.get m r c))

let bmul a b =
  let n = Array.length a
  and k = if Array.length a = 0 then 0 else Array.length a.(0)
  and p = if Array.length b = 0 then 0 else Array.length b.(0)
  in
  Array.init n (fun i ->
      Array.init p (fun j ->
          let acc = ref false in
          for l = 0 to k - 1 do
            if a.(i).(l) && b.(l).(j) then acc := true
          done;
          !acc))

let btranspose a =
  let n = Array.length a
  and m = if Array.length a = 0 then 0 else Array.length a.(0) in
  Array.init m (fun i -> Array.init n (fun j -> a.(j).(i)))

let beq a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun ra rb -> ra = rb) a b

(* X' := Z # Y; Z' := X # Y^T; valid iff X' = X and Z' = Z *)
let algorithm1 x y z = beq (bmul z y) x && beq (bmul x (btranspose y)) z

(* --- properties ------------------------------------------------------ *)

(* (a) the library's Algorithm-1 verdict agrees with the independent
   recomputation on arbitrary (mostly invalid) matchings; the empty
   matching is rejected outright *)
let prop_validate_agrees =
  QCheck.Test.make ~count:cases ~name:"validate = independent Algorithm 1"
    arb_matching (fun m ->
      match Matching.mapped m with
      | [] -> not (Matching.validate m)
      | _ ->
          let x, y, z = Matching.matrices m in
          Matching.validate m
          = algorithm1 (to_arrays x) (to_arrays y) (to_arrays z))

(* (b) single-bit mutations of a valid matching matrix Y are rejected.
   Clearing a set bit always breaks validation (the software iteration's
   access column in X is non-zero, the recomputed X' column goes
   all-zero).  Setting a clear bit gives the column two owners; that is
   rejected whenever the two intrinsic dimensions differ in Z — when
   their Z columns coincide the two dimensions are access-
   indistinguishable and Algorithm 1 genuinely cannot tell them apart,
   so those flips are exempt. *)
let prop_bitflip_rejected =
  QCheck.Test.make ~count:cases ~name:"one-bit Y mutation is rejected"
    arb_op (fun op ->
      let pool = intrinsic_pool () in
      List.for_all
        (fun intr ->
          List.for_all
            (fun m ->
              let x, y, z = Matching.matrices m in
              let x = to_arrays x and y = to_arrays y and z = to_arrays z in
              let rows = Array.length y
              and cols = if Array.length y = 0 then 0 else Array.length y.(0)
              in
              let flipped r c =
                let y' = Array.map Array.copy y in
                y'.(r).(c) <- not y'.(r).(c);
                y'
              in
              let owner c =
                let o = ref (-1) in
                for r = 0 to rows - 1 do
                  if y.(r).(c) then o := r
                done;
                !o
              in
              let z_col r = Array.map (fun row -> row.(r)) z in
              let ok = ref (algorithm1 x y z) in
              for r = 0 to rows - 1 do
                for c = 0 to cols - 1 do
                  if y.(r).(c) then begin
                    if algorithm1 x (flipped r c) z then ok := false
                  end
                  else if
                    z_col r <> z_col (owner c)
                    && algorithm1 x (flipped r c) z
                  then ok := false
                done
              done;
              !ok)
            (Mapping_gen.generate_op op intr))
        pool)

(* (c) the generator only emits validation-passing matchings, with and
   without the feasibility filter *)
let prop_generator_valid =
  QCheck.Test.make ~count:cases ~name:"Mapping_gen emits only valid mappings"
    arb_op (fun op ->
      List.for_all
        (fun intr ->
          List.for_all Matching.validate
            (Mapping_gen.generate_op ~filter:false op intr)
          && List.for_all Matching.validate (Mapping_gen.generate_op op intr))
        (intrinsic_pool ()))

(* --- migration ------------------------------------------------------- *)

(* random small GEMM / conv shapes for the migration property *)
let gen_shape : Operator.t QCheck.Gen.t =
  let open QCheck.Gen in
  bool >>= fun is_conv ->
  if is_conv then
    int_range 1 2 >>= fun n ->
    int_range 2 4 >>= fun c ->
    int_range 2 4 >>= fun k ->
    int_range 3 6 >>= fun p ->
    int_range 2 3 >>= fun r ->
    return (Ops.conv2d ~n ~c ~k ~p ~q:p ~r ~s:r ())
  else
    int_range 4 48 >>= fun m ->
    int_range 4 48 >>= fun n ->
    int_range 4 48 >>= fun k -> return (Ops.gemm ~m ~n ~k ())

let measure_candidate accel (c : Explore.candidate) =
  Spatial_sim.Machine.estimate_seconds accel.Accelerator.config
    (Codegen.lower accel c.Explore.mapping c.Explore.schedule)

(* every migrated seed re-validates on the target (Algorithm 1 for the
   mapping, the split/serial rules for the schedule), and tuning with the
   seeds never returns a plan worse than the best seed *)
let prop_migration =
  QCheck.Test.make ~count:cases
    ~name:"migrated seeds re-validate; seeded tune never worse than seeds"
    (QCheck.make
       ~print:(fun (op, to_ascend) ->
         Printf.sprintf "%s -> %s" (Dsl.print op)
           (if to_ascend then "ascend" else "a100"))
       QCheck.Gen.(
         gen_shape >>= fun op ->
         bool >>= fun to_ascend -> return (op, to_ascend)))
    (fun (op, to_ascend) ->
      let source = Accelerator.v100 () in
      let target =
        if to_ascend then Accelerator.ascend_like () else Accelerator.a100 ()
      in
      match Compiler.mappings source op with
      | [] -> true (* nothing to tune at the source: vacuous *)
      | src_mappings ->
          let src =
            Explore.tune ~population:4 ~generations:1 ~measure_top:1
              ~accel:source
              ~mappings:(List.filteri (fun i _ -> i < 6) src_mappings)
              ()
          in
          let c = src.Explore.best.Explore.candidate in
          let o =
            Migrate.migrate ~target ~op ~source_accel:source.Accelerator.name
              ~source_fingerprint:"prop"
              ~plan_text:(Plan_io.save c.Explore.mapping c.Explore.schedule)
              ()
          in
          List.for_all
            (fun (s : Explore.candidate) ->
              Matching.validate s.Explore.mapping.Mapping.matching
              && Schedule.validate s.Explore.mapping s.Explore.schedule)
            o.Migrate.seeds
          &&
          match o.Migrate.seeds with
          | [] -> true (* nothing transferred: vacuous *)
          | seeds ->
              let seed_best =
                List.fold_left
                  (fun acc s -> Float.min acc (measure_candidate target s))
                  infinity seeds
              in
              let r =
                Explore.tune ~population:4 ~generations:1 ~measure_top:1
                  ~initial_population:seeds ~accel:target
                  ~mappings:(Compiler.mappings target op)
                  ()
              in
              r.Explore.best.Explore.measured <= seed_best +. 1e-12)

(* --- wire protocol ---------------------------------------------------- *)

module Protocol = Amos_server.Protocol
module Fingerprint = Amos_service.Fingerprint

(* strings over the full byte range 0..255: the codec escapes control
   characters and passes high bytes through, so every byte string must
   survive a wire round trip exactly *)
let gen_wire_string : string QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 0 24 >>= fun n ->
  list_repeat n (int_range 0 255) >>= fun bytes ->
  return (String.init n (fun i -> Char.chr (List.nth bytes i)))

let gen_budget : Fingerprint.budget QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 1 512 >>= fun population ->
  int_range 0 64 >>= fun generations ->
  int_range 0 16 >>= fun measure_top ->
  int_range 0 (1 lsl 30) >>= fun seed ->
  return { Fingerprint.population; generations; measure_top; seed }

let gen_op_spec : Protocol.op_spec QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 0 2 >>= fun which ->
  match which with
  | 0 -> gen_wire_string >>= fun s -> return (Protocol.Layer s)
  | 1 ->
      gen_wire_string >>= fun kind ->
      int_range 1 64 >>= fun batch ->
      int_range 0 8 >>= fun index ->
      return (Protocol.Kind { kind; batch; index })
  | _ -> gen_wire_string >>= fun s -> return (Protocol.Dsl_text s)

let gen_request : Protocol.request QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 0 7 >>= fun which ->
  match which with
  | 0 -> return Protocol.Health
  | 1 -> return Protocol.Stats
  | 2 -> return Protocol.Shutdown
  | 7 ->
      int_range 0 (1 lsl 30) >>= fun request_id ->
      return (Protocol.Cancel { request_id })
  | 3 ->
      gen_wire_string >>= fun accel ->
      gen_op_spec >>= fun op ->
      gen_budget >>= fun budget ->
      return (Protocol.Lookup { accel; op; budget })
  | 4 ->
      gen_wire_string >>= fun accel ->
      gen_op_spec >>= fun op ->
      gen_budget >>= fun budget ->
      return (Protocol.Tune { accel; op; budget })
  | 5 ->
      gen_wire_string >>= fun accel ->
      gen_op_spec >>= fun op ->
      gen_budget >>= fun budget ->
      return (Protocol.Migrate_tune { accel; op; budget })
  | _ ->
      gen_wire_string >>= fun accel ->
      gen_wire_string >>= fun network ->
      int_range 1 64 >>= fun batch ->
      gen_budget >>= fun budget ->
      int_range 1 16 >>= fun jobs ->
      return (Protocol.Compile { accel; network; batch; budget; jobs })

(* finite floats only: non-finite values are unrepresentable in JSON and
   the writer maps them to null by design *)
let gen_finite_float : float QCheck.Gen.t =
  QCheck.Gen.float_range (-1e9) 1e9

let gen_response : Protocol.response QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 0 9 >>= fun which ->
  match which with
  | 0 -> gen_wire_string >>= fun s -> return (Protocol.Ok_r s)
  | 1 ->
      gen_wire_string >>= fun fingerprint ->
      bool >>= fun scalar ->
      (if scalar then return Protocol.Wire_scalar
       else gen_wire_string >>= fun t -> return (Protocol.Wire_spatial t))
      >>= fun plan ->
      gen_wire_string >>= fun source ->
      int_range 0 10_000 >>= fun evaluations ->
      gen_finite_float >>= fun tuning_seconds ->
      return
        (Protocol.Plan_r
           { Protocol.fingerprint; plan; source; evaluations; tuning_seconds })
  | 2 -> return Protocol.Not_found_r
  | 3 ->
      gen_finite_float >>= fun uptime_s ->
      int_range 0 1000 >>= fun requests ->
      int_range 0 1000 >>= fun tunes ->
      int_range 0 1000 >>= fun deduped ->
      int_range 0 1000 >>= fun hot_hits ->
      int_range 0 1000 >>= fun cache_hits ->
      int_range 0 1000 >>= fun busy_rejections ->
      int_range 0 1000 >>= fun deadline_rejections ->
      int_range 0 1000 >>= fun cancels ->
      int_range 0 64 >>= fun in_flight ->
      int_range 0 64 >>= fun queue_load ->
      int_range 0 1_000_000 >>= fun hot_bytes ->
      gen_finite_float >>= fun hot_tuning_seconds ->
      int_range 0 1_000_000 >>= fun cache_bytes ->
      int_range 0 100 >>= fun quarantine_retunes ->
      int_range 0 1000 >>= fun forwarded ->
      int_range 0 1000 >>= fun peer_hits ->
      int_range 0 1000 >>= fun peer_fallbacks ->
      int_range 0 1000 >>= fun budget_fallbacks ->
      int_range 0 1000 >>= fun auth_rejections ->
      return
        (Protocol.Stats_r
           {
             Protocol.uptime_s;
             requests;
             tunes;
             deduped;
             hot_hits;
             cache_hits;
             busy_rejections;
             deadline_rejections;
             cancels;
             in_flight;
             queue_load;
             hot_bytes;
             hot_tuning_seconds;
             cache_bytes;
             quarantine_retunes;
             forwarded;
             peer_hits;
             peer_fallbacks;
             budget_fallbacks;
             auth_rejections;
           })
  | 4 ->
      gen_wire_string >>= fun network ->
      int_range 0 100 >>= fun total_ops ->
      int_range 0 100 >>= fun mapped_ops ->
      gen_finite_float >>= fun network_seconds ->
      int_range 0 100 >>= fun stages ->
      int_range 0 100 >>= fun comp_cache_hits ->
      int_range 0 100 >>= fun comp_tuned ->
      return
        (Protocol.Compiled_r
           {
             Protocol.network;
             total_ops;
             mapped_ops;
             network_seconds;
             stages;
             comp_cache_hits;
             comp_tuned;
           })
  | 5 ->
      gen_finite_float >>= fun retry_after_s ->
      return (Protocol.Busy_r { retry_after_s = Float.abs retry_after_s })
  | 6 ->
      int_range 0 100_000 >>= fun pg_generation ->
      option gen_finite_float >>= fun pg_best_predicted ->
      option gen_finite_float >>= fun pg_best_measured ->
      int_range 0 10_000_000 >>= fun pg_evaluations ->
      return
        (Protocol.Progress_r
           {
             Protocol.pg_generation;
             pg_best_predicted;
             pg_best_measured;
             pg_evaluations;
           })
  | 7 -> return Protocol.Cancelled_r
  | 8 ->
      gen_finite_float >>= fun w ->
      return (Protocol.Deadline_hint_r { projected_wait_s = Float.abs w })
  | _ -> gen_wire_string >>= fun s -> return (Protocol.Error_r s)

let arb_request =
  QCheck.make
    ~print:(fun r -> String.escaped (Protocol.encode_request r))
    gen_request

let arb_response =
  QCheck.make
    ~print:(fun r -> String.escaped (Protocol.encode_response r))
    gen_response

(* the decoder is an exact left inverse of the encoder, for every request
   and response — including byte strings full of control characters and
   high bytes, and floats needing a shortest round-trip representation *)
let prop_request_roundtrip =
  QCheck.Test.make ~count:cases ~name:"request decode . encode = id"
    arb_request (fun r ->
      Protocol.decode_request (Protocol.encode_request r)
      = Ok (r, Protocol.empty_envelope))

(* the deadline rides the same envelope and survives the round trip;
   its absence decodes as [None], so pre-deadline encoders interoperate *)
let prop_request_deadline_roundtrip =
  QCheck.Test.make ~count:cases ~name:"request deadline rides the envelope"
    QCheck.(pair arb_request (int_range 1 1_000_000))
    (fun (r, d) ->
      match
        Protocol.decode_request (Protocol.encode_request ~deadline_ms:d r)
      with
      | Ok (r', env) ->
          r' = r
          && env.Protocol.env_deadline_ms = Some d
          && env.Protocol.env_request_id = None
          && not env.Protocol.env_accept_stream
      | Error _ -> false)

(* the streaming opt-in and request id ride the same envelope; a client
   that never sets them encodes byte-identically to a pre-stream client *)
let prop_request_stream_envelope_roundtrip =
  QCheck.Test.make ~count:cases ~name:"stream fields ride the envelope"
    QCheck.(pair arb_request (int_range 0 (1 lsl 30)))
    (fun (r, id) ->
      match
        Protocol.decode_request
          (Protocol.encode_request ~request_id:id ~accept_stream:true r)
      with
      | Ok (r', env) ->
          r' = r
          && env.Protocol.env_request_id = Some id
          && env.Protocol.env_accept_stream
      | Error _ -> false)

let prop_request_streamless_bytes_identical =
  QCheck.Test.make ~count:cases
    ~name:"streamless encoding is byte-identical to pre-stream" arb_request
    (fun r ->
      Protocol.encode_request ~accept_stream:false r
      = Protocol.encode_request r)

let prop_response_roundtrip =
  QCheck.Test.make ~count:cases ~name:"response decode . encode = id"
    arb_response (fun r ->
      Protocol.decode_response (Protocol.encode_response r) = Ok r)

(* --- cache economy ---------------------------------------------------- *)

module Plan_cache = Amos_service.Plan_cache
module Retain = Amos_service.Retain
module Clock = Amos_service.Clock

let eco_accel =
  lazy
    (let base = Accelerator.v100 () in
     { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] })

let eco_budget =
  { Fingerprint.population = 4; generations = 2; measure_top = 2; seed = 42 }

let eco_ops =
  lazy
    [|
      Ops.gemm ~m:4 ~n:4 ~k:4 ();
      Ops.gemm ~m:8 ~n:8 ~k:8 ();
      Ops.gemm ~m:6 ~n:6 ~k:6 ();
      Ops.gemm ~m:4 ~n:8 ~k:6 ();
      Ops.gemm ~m:8 ~n:4 ~k:4 ();
      Ops.gemm ~m:6 ~n:8 ~k:4 ();
    |]

(* an arbitrary interleaving of the operations that move value records:
   stores (with integer tuning costs), lookups (which re-stamp access
   times), virtual-clock advances and explicit trims *)
type eco_step =
  | E_store of int * int  (* operator index, tuning seconds *)
  | E_touch of int
  | E_advance of int  (* seconds *)
  | E_trim

let show_eco_step = function
  | E_store (i, ts) -> Printf.sprintf "store(%d, %ds)" i ts
  | E_touch i -> Printf.sprintf "touch(%d)" i
  | E_advance dt -> Printf.sprintf "advance(%ds)" dt
  | E_trim -> "trim"

let gen_eco_step =
  let open QCheck.Gen in
  frequency
    [
      (4, map2 (fun i ts -> E_store (i, ts)) (int_range 0 5) (int_range 1 20));
      (2, map (fun i -> E_touch i) (int_range 0 5));
      (2, map (fun dt -> E_advance dt) (int_range 1 7200));
      (1, return E_trim);
    ]

(* (budget kind, bound, steps): kind 0 = unbounded, 1 = max_bytes of
   [bound * 150] (one to a dozen entries' worth), 2 = max_tuning_seconds
   of [bound * 3] *)
let gen_eco_script =
  QCheck.Gen.(
    triple (int_range 0 2) (int_range 1 12)
      (list_size (int_range 1 40) gen_eco_step))

let arb_eco_script =
  QCheck.make
    ~print:(fun (kind, bound, steps) ->
      Printf.sprintf "kind=%d bound=%d [%s]" kind bound
        (String.concat "; " (List.map show_eco_step steps)))
    gen_eco_script

let apply_eco ~dir (kind, bound, steps) =
  let accel = Lazy.force eco_accel in
  let ops = Lazy.force eco_ops in
  let clock = Clock.virtual_ () in
  let max_bytes = if kind = 1 then Some (bound * 150) else None in
  let max_tuning_seconds =
    if kind = 2 then Some (float_of_int bound *. 3.) else None
  in
  let cache =
    Plan_cache.create ?max_bytes ?max_tuning_seconds ~clock ~dir ()
  in
  List.iter
    (function
      | E_store (i, ts) ->
          Plan_cache.store ~tuning_seconds:(float_of_int ts) cache ~accel
            ~op:ops.(i) ~budget:eco_budget Plan_cache.Scalar
      | E_touch i ->
          ignore
            (Plan_cache.lookup cache ~accel ~op:ops.(i) ~budget:eco_budget)
      | E_advance dt -> Clock.advance clock (float_of_int dt)
      | E_trim -> ignore (Plan_cache.trim cache))
    steps;
  cache

(* the byte accounting never drifts from the log: after any operation
   sequence — including budget evictions, overwrites and trims — the
   accounted total equals the sizes of the live records' entries, and a
   fresh handle replays to the same totals *)
let prop_bytes_accounted =
  QCheck.Test.make ~count:100 ~name:"accounted bytes = sum of entry sizes"
    arb_eco_script (fun script ->
      let dir = Temp.dir "amos-prop-eco" in
      Fun.protect
        ~finally:(fun () -> Temp.rm_rf dir)
        (fun () ->
          let cache = apply_eco ~dir script in
          let on_disk = Log_records.entry_bytes dir in
          let reopened = Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir () in
          Plan_cache.disk_bytes cache = on_disk
          && Plan_cache.disk_bytes reopened = on_disk
          && Plan_cache.disk_tuning_seconds reopened
             = Plan_cache.disk_tuning_seconds cache))

(* --- the plan log against the store it replaced ----------------------- *)

(* an interleaving of everything that moves the disk tier: stores
   (spatial or scalar values, so overwrites change content and size),
   lookups, clock advances, trims, clears and reopens *)
type log_step =
  | L_store of int * int * bool  (* operator index, tuning seconds, spatial *)
  | L_lookup of int
  | L_advance of int
  | L_trim
  | L_clear
  | L_reopen

let show_log_step = function
  | L_store (i, ts, sp) ->
      Printf.sprintf "store(%d, %ds%s)" i ts (if sp then ", spatial" else "")
  | L_lookup i -> Printf.sprintf "lookup(%d)" i
  | L_advance dt -> Printf.sprintf "advance(%ds)" dt
  | L_trim -> "trim"
  | L_clear -> "clear"
  | L_reopen -> "reopen"

let gen_log_step =
  let open QCheck.Gen in
  frequency
    [
      ( 5,
        map3
          (fun i ts sp -> L_store (i, ts, sp))
          (int_range 0 5) (int_range 1 20) bool );
      (3, map (fun i -> L_lookup i) (int_range 0 7));
      (2, map (fun dt -> L_advance dt) (int_range 1 7200));
      (1, return L_trim);
      (1, frequency [ (1, return L_clear); (3, return L_reopen) ]);
    ]

let arb_log_script =
  QCheck.make
    ~print:(fun (kind, bound, steps) ->
      Printf.sprintf "kind=%d bound=%d [%s]" kind bound
        (String.concat "; " (List.map show_log_step steps)))
    QCheck.Gen.(
      triple (int_range 0 2) (int_range 1 12)
        (list_size (int_range 1 40) gen_log_step))

(* one tuned plan per operator (scalar when unmappable); indices 6 and 7
   are looked up but never stored *)
let log_ops =
  lazy
    (let accel = Lazy.force eco_accel in
     let stored = Lazy.force eco_ops in
     let ops =
       Array.append stored
         [| Ops.gemm ~m:2 ~n:4 ~k:6 (); Ops.gemm ~m:6 ~n:2 ~k:2 () |]
     in
     Array.map
       (fun op ->
         ( op,
           match Explore.tune_op ~population:4 ~generations:2 ~accel op with
           | Some r ->
               let c = r.Explore.best.Explore.candidate in
               Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule)
           | None -> Plan_cache.Scalar ))
       ops)

let render_value = function
  | None -> "miss"
  | Some Plan_cache.Scalar -> "scalar"
  | Some (Plan_cache.Spatial (m, sched)) -> Plan_io.save m sched

(* every lookup, stats, disk size, accounting, per-entry item and
   eviction log agree between the log and the per-entry-file store,
   each on its own directory, on one virtual clock *)
let prop_plan_log =
  QCheck.Test.make ~count:100 ~name:"plan log = per-entry-file store"
    arb_log_script (fun (kind, bound, steps) ->
      let accel = Lazy.force eco_accel in
      let ops = Lazy.force log_ops in
      let dir_log = Temp.dir "amos-prop-log" in
      let dir_old = Temp.dir "amos-prop-log-oracle" in
      Fun.protect
        ~finally:(fun () ->
          Temp.rm_rf dir_log;
          Temp.rm_rf dir_old)
        (fun () ->
          let clock = Clock.virtual_ () in
          let max_bytes = if kind = 1 then Some (bound * 150) else None in
          let max_tuning_seconds =
            if kind = 2 then Some (float_of_int bound *. 3.) else None
          in
          let open_log () =
            Plan_cache.create ?max_bytes ?max_tuning_seconds ~clock
              ~dir:dir_log ()
          in
          let open_old () =
            Plan_cache_oracle.create ?max_bytes ?max_tuning_seconds ~clock
              ~dir:dir_old ()
          in
          let log = ref (open_log ()) and old = ref (open_old ()) in
          let agree () =
            Plan_cache.stats !log = Plan_cache_oracle.stats !old
            && Plan_cache.disk_size !log = Plan_cache_oracle.disk_size !old
            && Plan_cache.disk_bytes !log = Plan_cache_oracle.disk_bytes !old
            && Plan_cache.disk_tuning_seconds !log
               = Plan_cache_oracle.disk_tuning_seconds !old
            && Plan_cache.eviction_log !log
               = Plan_cache_oracle.eviction_log !old
            && Array.for_all
                 (fun (op, _) ->
                   let fingerprint =
                     Fingerprint.key ~accel ~op ~budget:eco_budget
                   in
                   Plan_cache.info !log ~fingerprint
                   = Plan_cache_oracle.info !old ~fingerprint)
                 ops
          in
          List.for_all
            (fun step ->
              let same =
                match step with
                | L_store (i, ts, spatial) ->
                    let op, v = ops.(i) in
                    let v = if spatial then v else Plan_cache.Scalar in
                    let tuning_seconds = float_of_int ts in
                    Plan_cache.store ~tuning_seconds !log ~accel ~op
                      ~budget:eco_budget v;
                    Plan_cache_oracle.store ~tuning_seconds !old ~accel ~op
                      ~budget:eco_budget v;
                    true
                | L_lookup i ->
                    let op, _ = ops.(i) in
                    render_value
                      (Plan_cache.lookup !log ~accel ~op ~budget:eco_budget)
                    = render_value
                        (Plan_cache_oracle.lookup !old ~accel ~op
                           ~budget:eco_budget)
                | L_advance dt ->
                    Clock.advance clock (float_of_int dt);
                    true
                | L_trim -> Plan_cache.trim !log = Plan_cache_oracle.trim !old
                | L_clear ->
                    Plan_cache.clear !log;
                    Plan_cache_oracle.clear !old;
                    true
                | L_reopen ->
                    log := open_log ();
                    old := open_old ();
                    true
              in
              same && agree ())
            steps))

(* eviction never sacrifices a more valuable entry: at the moment each
   victim was chosen, every retained entry scored at least as high *)
let prop_eviction_order =
  QCheck.Test.make ~count:100 ~name:"no survivor outscored by a victim"
    arb_eco_script (fun (kind, bound, steps) ->
      (* force a budget so the sequence actually evicts *)
      let kind = if kind = 0 then 2 else kind in
      let dir = Temp.dir "amos-prop-eco" in
      Fun.protect
        ~finally:(fun () -> Temp.rm_rf dir)
        (fun () ->
          let cache = apply_eco ~dir (kind, bound, steps) in
          List.for_all
            (fun (_fp, victim_score, min_retained) ->
              victim_score >= 0. && victim_score <= min_retained)
            (Plan_cache.eviction_log cache)))

(* the age decay depends only on [now - last_access], so shifting every
   timestamp by the same delta leaves scores bit-identical (integer
   times keep float addition exact) *)
let prop_score_translation_invariant =
  QCheck.Test.make ~count:cases
    ~name:"score invariant under clock translation"
    QCheck.(
      quad (int_range 0 10_000) (int_range 0 1_000)
        (pair (int_range 0 1_000_000) (int_range 0 1_000_000))
        (int_range (-1_000_000) 1_000_000))
    (fun (bytes, ts, (last, age), delta) ->
      let item =
        {
          Retain.bytes;
          tuning_seconds = float_of_int ts;
          last_access = float_of_int last;
        }
      in
      let now = float_of_int (last + age) in
      let shifted =
        { item with Retain.last_access = float_of_int (last + delta) }
      in
      Retain.score ~now item
      = Retain.score ~now:(float_of_int (last + age + delta)) shifted)

(* --- retention table --------------------------------------------------- *)

(* random edits of one [Retain.Table] on a virtual clock, over a small
   alphabet of fingerprints, sizes (0 and 1 byte score alike) and integer
   costs, so that scores and access stamps tie often and integer sums
   stay exact *)
type rt_step =
  | R_set of int * int * int  (* fingerprint, bytes, tuning seconds *)
  | R_touch of int
  | R_remove of int
  | R_reset
  | R_advance of int  (* quarter half-lives *)

let rt_fps = [| "fp-a"; "fp-b"; "fp-c"; "fp-d" |]

let show_rt_step = function
  | R_set (i, b, ts) -> Printf.sprintf "set(%s, %dB, %ds)" rt_fps.(i) b ts
  | R_touch i -> Printf.sprintf "touch(%s)" rt_fps.(i)
  | R_remove i -> Printf.sprintf "remove(%s)" rt_fps.(i)
  | R_reset -> "reset"
  | R_advance q -> Printf.sprintf "advance(%d/4 half-life)" q

let gen_rt_step =
  let open QCheck.Gen in
  let fp = int_range 0 (Array.length rt_fps - 1) in
  frequency
    [
      ( 5,
        map3
          (fun i b ts -> R_set (i, b, ts))
          fp
          (oneofl [ 0; 1; 100; 200 ])
          (int_range 0 3) );
      (3, map (fun i -> R_touch i) fp);
      (2, map (fun i -> R_remove i) fp);
      (1, return R_reset);
      (3, map (fun q -> R_advance q) (int_range 0 4));
    ]

(* the victim rule each cache tier folded for itself before they shared
   one table: lowest key, ties to the smallest fingerprint *)
let oracle_victim policy ~now items =
  List.fold_left
    (fun acc (fp, (it : Retain.item)) ->
      let key =
        match policy with
        | `Scored -> Retain.score ~now it
        | `Lru -> it.Retain.last_access
      in
      match acc with
      | Some (bfp, best) when best < key || (best = key && bfp <= fp) -> acc
      | _ -> Some (fp, key))
    None items
  |> Option.map fst

(* after every step the table agrees with an association-list model:
   same bindings, totals equal to a fold over the items, and the same
   victim as the oracle under both policies *)
let prop_retain_table =
  QCheck.Test.make ~count:cases ~name:"table totals and victim match a fold"
    (QCheck.make
       ~print:(fun steps -> String.concat "; " (List.map show_rt_step steps))
       QCheck.Gen.(list_size (int_range 1 40) gen_rt_step))
    (fun steps ->
      let clock = Clock.virtual_ () in
      let table = Retain.Table.create () in
      let model = ref [] in
      let agrees () =
        let now = Clock.now clock in
        let items = List.map (fun (fp, (_, it)) -> (fp, it)) !model in
        Retain.Table.length table = List.length !model
        && List.sort compare
             (Retain.Table.fold
                (fun fp v it acc -> (fp, (v, it)) :: acc)
                table [])
           = List.sort compare !model
        && Array.for_all
             (fun fp ->
               let m = List.assoc_opt fp !model in
               Retain.Table.mem table fp = Option.is_some m
               && Retain.Table.item table fp = Option.map snd m)
             rt_fps
        && Retain.Table.bytes table
           = List.fold_left (fun acc (_, it) -> acc + it.Retain.bytes) 0 items
        && Retain.Table.tuning_seconds table
           = List.fold_left
               (fun acc (_, it) -> acc +. it.Retain.tuning_seconds)
               0. items
        && List.for_all
             (fun policy ->
               Option.map fst (Retain.Table.victim policy ~now table)
               = oracle_victim policy ~now items)
             [ `Scored; `Lru ]
      in
      List.for_all
        (fun (n, step) ->
          let now = Clock.now clock in
          let step_ok =
            match step with
            | R_set (i, bytes, ts) ->
                let it =
                  {
                    Retain.bytes;
                    tuning_seconds = float_of_int ts;
                    last_access = now;
                  }
                in
                Retain.Table.set table rt_fps.(i) n it;
                model :=
                  (rt_fps.(i), (n, it)) :: List.remove_assoc rt_fps.(i) !model;
                true
            | R_touch i ->
                let hit = Retain.Table.touch table rt_fps.(i) ~now in
                let want = Option.map fst (List.assoc_opt rt_fps.(i) !model) in
                model :=
                  List.map
                    (fun (fp, (v, it)) ->
                      if fp = rt_fps.(i) then
                        (fp, (v, { it with Retain.last_access = now }))
                      else (fp, (v, it)))
                    !model;
                hit = want
            | R_remove i ->
                Retain.Table.remove table rt_fps.(i);
                model := List.remove_assoc rt_fps.(i) !model;
                true
            | R_reset ->
                Retain.Table.reset table;
                model := [];
                true
            | R_advance q ->
                Clock.advance clock
                  (float_of_int q *. Retain.default_half_life /. 4.);
                true
          in
          step_ok && agrees ())
        (List.mapi (fun n step -> (n, step)) steps))

(* --- packed Bin_matrix vs per-cell Naive oracle ---------------------- *)

(* Differential tests of the word-packed binary-matrix kernel against the
   preserved per-cell implementation ({!Bin_matrix.Naive}).  Dimensions
   deliberately bracket the word boundary (bits_per_word = Sys.int_size,
   63 on 64-bit): 62/63/64/65 exercise the last-word mask with 0, 1 and
   many padding bits; 0-row/0-col shapes exercise the degenerate cases.
   The packed inputs get their padding bits poisoned, so any operation
   that forgets to mask trailing bits diverges from the oracle. *)

let bm_dims = [ 0; 1; 2; 5; 31; 32; 33; 62; 63; 64; 65; 100 ]

(* Build the same random matrix in both representations independently
   (never through the converters, so these tests don't assume them). *)
let bm_fill_both ?(poison = true) ~rows ~cols rng =
  let p = Bin_matrix.create ~rows ~cols in
  let n = Bin_matrix.Naive.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Rng.int rng 3 = 0 then begin
        Bin_matrix.set p i j true;
        Bin_matrix.Naive.set n i j true
      end
    done
  done;
  if poison then Bin_matrix.poison_padding p;
  (p, n)

let bm_agrees p n =
  Bin_matrix.rows p = Bin_matrix.Naive.rows n
  && Bin_matrix.cols p = Bin_matrix.Naive.cols n
  &&
  let ok = ref true in
  for i = 0 to Bin_matrix.rows p - 1 do
    for j = 0 to Bin_matrix.cols p - 1 do
      if Bin_matrix.get p i j <> Bin_matrix.Naive.get n i j then ok := false
    done
  done;
  !ok

let prop_bm_mul =
  QCheck.Test.make ~count:cases
    ~name:"packed mul = naive mul (inputs padding-poisoned)"
    (QCheck.make
       QCheck.Gen.(
         quad (oneofl bm_dims) (oneofl bm_dims) (oneofl bm_dims)
           (int_bound 1_000_000)))
    (fun (m, k, n, seed) ->
      let rng = Rng.create seed in
      let a, na = bm_fill_both ~rows:m ~cols:k rng in
      let b, nb = bm_fill_both ~rows:k ~cols:n rng in
      let c = Bin_matrix.mul a b in
      let nc = Bin_matrix.Naive.mul na nb in
      (* mul_into must fully overwrite, including a poisoned destination *)
      let c' = Bin_matrix.create ~rows:m ~cols:n in
      Bin_matrix.poison_padding c';
      Bin_matrix.mul_into c' a b;
      bm_agrees c nc
      && Bin_matrix.equal c c'
      && Bin_matrix.equal c (Bin_matrix.of_naive nc)
      && Bin_matrix.Naive.equal (Bin_matrix.to_naive c) nc)

let prop_bm_transpose =
  QCheck.Test.make ~count:cases ~name:"packed transpose = naive transpose"
    (QCheck.make
       QCheck.Gen.(triple (oneofl bm_dims) (oneofl bm_dims) (int_bound 1_000_000)))
    (fun (m, k, seed) ->
      let rng = Rng.create seed in
      let a, na = bm_fill_both ~rows:m ~cols:k rng in
      let t = Bin_matrix.transpose a in
      let nt = Bin_matrix.Naive.transpose na in
      let t' = Bin_matrix.create ~rows:k ~cols:m in
      Bin_matrix.poison_padding t';
      Bin_matrix.transpose_into t' a;
      bm_agrees t nt
      && Bin_matrix.equal t t'
      && Bin_matrix.equal a (Bin_matrix.transpose t))

let prop_bm_equal =
  QCheck.Test.make ~count:cases
    ~name:"equal masks padding and agrees with naive"
    (QCheck.make
       QCheck.Gen.(triple (oneofl bm_dims) (oneofl bm_dims) (int_bound 1_000_000)))
    (fun (m, k, seed) ->
      (* same stream twice -> same contents; only one side poisoned *)
      let a, na = bm_fill_both ~poison:true ~rows:m ~cols:k (Rng.create seed) in
      let b, nb = bm_fill_both ~poison:false ~rows:m ~cols:k (Rng.create seed) in
      let c = Bin_matrix.copy a in
      Bin_matrix.poison_padding c;
      let same =
        Bin_matrix.equal a b && Bin_matrix.Naive.equal na nb
        && Bin_matrix.equal a c
      in
      let flip_detected =
        m = 0 || k = 0
        ||
        let rng = Rng.create (seed + 1) in
        let i = Rng.int rng m and j = Rng.int rng k in
        let d = Bin_matrix.copy a in
        Bin_matrix.set d i j (not (Bin_matrix.get d i j));
        (not (Bin_matrix.equal a d)) && not (Bin_matrix.equal d a)
      in
      same && flip_detected)

let prop_bm_row_col =
  QCheck.Test.make ~count:cases ~name:"packed row/column = naive row/column"
    (QCheck.make
       QCheck.Gen.(triple (oneofl bm_dims) (oneofl bm_dims) (int_bound 1_000_000)))
    (fun (m, k, seed) ->
      let a, na = bm_fill_both ~rows:m ~cols:k (Rng.create seed) in
      let rows_ok = ref true and cols_ok = ref true in
      for i = 0 to m - 1 do
        if Bin_matrix.row a i <> Bin_matrix.Naive.row na i then rows_ok := false
      done;
      for j = 0 to k - 1 do
        if Bin_matrix.column a j <> Bin_matrix.Naive.column na j then
          cols_ok := false
      done;
      !rows_ok && !cols_ok)

(* Scratch slots grow to the largest shape ever requested and alias their
   buffer across [ensure] calls: a chain of [mul_into]/[transpose_into]
   through two shared slots over varying shapes must still equal the
   fresh-allocation results — stale words from a previous, larger use of
   the slot must never leak into a smaller matrix. *)
let prop_bm_scratch_alias =
  QCheck.Test.make ~count:100 ~name:"scratch slot reuse = fresh allocation"
    (QCheck.make
       QCheck.Gen.(
         pair
           (list_size (int_range 1 6)
              (triple (oneofl bm_dims) (oneofl bm_dims) (oneofl bm_dims)))
           (int_bound 1_000_000)))
    (fun (shapes, seed) ->
      let rng = Rng.create seed in
      let s1 = Bin_matrix.Scratch.slot () in
      let s2 = Bin_matrix.Scratch.slot () in
      List.for_all
        (fun (m, k, n) ->
          let a, _ = bm_fill_both ~rows:m ~cols:k rng in
          let b, _ = bm_fill_both ~rows:k ~cols:n rng in
          let c = Bin_matrix.Scratch.ensure s1 ~rows:m ~cols:n in
          Bin_matrix.mul_into c a b;
          let t = Bin_matrix.Scratch.ensure s2 ~rows:n ~cols:m in
          Bin_matrix.transpose_into t c;
          (* compare before the next iteration reuses the slots *)
          let fresh = Bin_matrix.mul a b in
          Bin_matrix.equal c fresh
          && Bin_matrix.equal t (Bin_matrix.transpose fresh))
        shapes)

(* Regression for the padding bug fixed alongside the packed rewrite:
   [equal] must compare word-wise under the last-word column mask, so a
   copy with poisoned padding is still equal to the original. *)
let bm_equal_padding_regression =
  Alcotest.test_case "equal ignores last-word padding bits" `Quick (fun () ->
      List.iter
        (fun cols ->
          let a = Bin_matrix.create ~rows:3 ~cols in
          for j = 0 to cols - 1 do
            Bin_matrix.set a 1 j (j mod 3 = 0)
          done;
          let b = Bin_matrix.copy a in
          Bin_matrix.poison_padding b;
          Alcotest.(check bool)
            (Printf.sprintf "cols=%d copy+poison = original" cols)
            true
            (Bin_matrix.equal a b && Bin_matrix.equal b a))
        [ 1; 5; 62; 63; 64; 65; 127 ])

(* --- fingerprint renderer vs the original renderer (oracle) ---------- *)

(* random operators and budgets on every preset: keys, op keys and the
   operator rendering stay byte-identical to {!Fingerprint_oracle} *)
let prop_fingerprint_oracle =
  QCheck.Test.make ~count:cases ~name:"fingerprint renderer = oracle"
    (QCheck.make
       ~print:(fun (op, budget, name) ->
         Printf.sprintf "%s on %s, seed %d" (Dsl.print op) name
           budget.Fingerprint.seed)
       QCheck.Gen.(triple gen_op gen_budget (oneofl Accelerator.preset_names)))
    (fun (op, budget, name) ->
      let accel = Option.get (Accelerator.by_name name) in
      Fingerprint.operator op = Fingerprint_oracle.operator op
      && Fingerprint.key ~accel ~op ~budget
         = Fingerprint_oracle.key ~accel ~op ~budget
      && Fingerprint.op_key ~op ~budget = Fingerprint_oracle.op_key ~op ~budget)

(* --- schedule split menus against their specification ----------------- *)

(* extents up to 2^30: small ones, uniform ones (mostly few divisors) and
   7-smooth ones (many divisors) *)
let gen_extent =
  let open QCheck.Gen in
  let pow b e = int_of_float (float_of_int b ** float_of_int e) in
  oneof
    [
      int_range 1 1024;
      int_range 1 (1 lsl 30);
      map
        (fun (a, b, c, d) -> (1 lsl a) * pow 3 b * pow 5 c * pow 7 d)
        (quad (int_range 0 9) (int_range 0 5) (int_range 0 3) (int_range 0 2));
    ]

(* the block menu is the divisors plus the powers of two up to 128 below
   the extent, strictly ascending; the sub-core menu is its members up
   to 8.  Menus are shared per domain, so each case runs in a fresh
   domain and asks for each menu twice (built, then served from the
   table); both answers meet the specification and equal the
   trial-division oracle, which is run up to 2^20 (it walks every
   integer up to the extent). *)
let menus_meet_spec extent =
  let menu = Schedule.block_choices extent in
  let members = Hashtbl.create 64 in
  Array.iter (fun x -> Hashtbl.replace members x ()) menu;
  let mem x = Hashtbl.mem members x in
  let small_pow2 x = x >= 2 && x <= 128 && x land (x - 1) = 0 in
  let ascending = ref true in
  for i = 1 to Array.length menu - 1 do
    if menu.(i - 1) >= menu.(i) then ascending := false
  done;
  let divisor_pairs = ref true in
  let d = ref 1 in
  while !d <= extent / !d do
    if extent mod !d = 0 && not (mem !d && mem (extent / !d)) then
      divisor_pairs := false;
    incr d
  done;
  let subcore = Schedule.subcore_choices extent in
  !ascending && !divisor_pairs
  && Array.for_all
       (fun x -> x >= 1 && (extent mod x = 0 || (small_pow2 x && x < extent)))
       menu
  && List.for_all (fun p -> p >= extent || mem p) [ 2; 4; 8; 16; 32; 64; 128 ]
  && subcore = Array.of_list (List.filter (fun f -> f <= 8) (Array.to_list menu))
  && (extent > 1 lsl 20
     || menu = Array.of_list (Schedule_oracle.factor_choices extent)
        && subcore = Array.of_list (Schedule_oracle.subcore_choices extent))

let prop_schedule_menus =
  QCheck.Test.make ~count:cases ~name:"split menus meet their specification"
    (QCheck.make ~print:string_of_int gen_extent)
    (fun extent ->
      Domain.join
        (Domain.spawn (fun () ->
             menus_meet_spec extent && menus_meet_spec extent)))

(* --- schedule draws and screen summaries against the reference ----------- *)

(* the mapping space of each (preset, kind) suite representative at batch
   16, built once per pair *)
let reference_spaces = Hashtbl.create 64

let reference_space name kind =
  match Hashtbl.find_opt reference_spaces (name, kind) with
  | Some space -> space
  | None ->
      let accel = Option.get (Accelerator.by_name name) in
      let space =
        ( accel,
          Array.of_list
            (Compiler.mappings accel (Suites.representative ~batch:16 kind)) )
      in
      Hashtbl.add reference_spaces (name, kind) space;
      space

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_summary (a : Spatial_sim.Kernel.summary)
    (b : Spatial_sim.Kernel.summary) =
  let open Spatial_sim.Kernel in
  let t = a.s_timing and u = b.s_timing in
  same_float a.s_issue_cycles b.s_issue_cycles
  && a.s_blocks = b.s_blocks
  && a.s_subcore_parallelism = b.s_subcore_parallelism
  && a.s_serial_steps = b.s_serial_steps
  && a.s_max_load_elems = b.s_max_load_elems
  && same_float t.flops_per_call u.flops_per_call
  && t.shared_bytes_per_block = u.shared_bytes_per_block
  && same_float t.global_load_bytes_per_block u.global_load_bytes_per_block
  && same_float t.global_store_bytes_per_block u.global_store_bytes_per_block
  && same_float t.reg_load_bytes_per_call u.reg_load_bytes_per_call
  && same_float t.reg_store_bytes_per_call u.reg_store_bytes_per_call
  && same_float t.mem_efficiency u.mem_efficiency

(* [Schedule]'s draws on a space equal the reference's list-based draws,
   stream for stream (four randoms from one generator, four chained
   mutations from another), and the tuner's kernel-free screen summary of
   every drawn schedule equals the summary of its fully lowered kernel *)
let prop_reference =
  QCheck.Test.make ~count:cases ~name:"schedule draws and summaries = reference"
    (QCheck.make
       ~print:(fun (name, kind, i, seed) ->
         Printf.sprintf "%s %s mapping %d, seed %d" name (Ops.kind_name kind) i
           seed)
       QCheck.Gen.(
         quad
           (oneofl Accelerator.preset_names)
           (oneofl Ops.all_kinds) nat (int_bound 1_000_000)))
    (fun (name, kind, i, seed) ->
      let accel, mappings = reference_space name kind in
      QCheck.assume (mappings <> [||]);
      let m = mappings.(i mod Array.length mappings) in
      let randoms random =
        let rng = Rng.create seed in
        List.init 4 (fun _ -> random rng m)
      in
      let mutants mutate =
        let rng = Rng.create (seed + 1) in
        let rec chain s n =
          if n = 0 then []
          else
            let s = mutate rng m s in
            s :: chain s (n - 1)
        in
        chain (Schedule.default m) 4
      in
      let drawn = randoms Schedule.random @ mutants Schedule.mutate in
      let prepared = Codegen.prepare accel m in
      Schedule.default m = Recompute.default m
      && drawn = randoms Recompute.random @ mutants Recompute.mutate
      && List.for_all
           (fun s ->
             same_summary
               (Codegen.summarize_prepared prepared s)
               (Spatial_sim.Kernel.summarize (Codegen.lower accel m s)))
           (Schedule.default m :: drawn))

(* --- the structural mapping memo and the describe renderer -------------- *)

(* random operators of all three MAC views, with extent-1 iterations *)
let gen_mac_op =
  gen_op_with
    ~extent:(QCheck.Gen.int_range 1 4)
    ~arith:(QCheck.Gen.oneofl [ `Mul_add; `Add_acc; `Sq_diff ])

let arb_mac_op = QCheck.make ~print:Dsl.print gen_mac_op

(* every intrinsic of the pool, under both filter values, hands out the
   reference's fresh enumeration on a structure's first request and on
   its repeat *)
let prop_mapping_memo =
  QCheck.Test.make ~count:cases ~name:"memo = fresh enumeration, both filters"
    arb_mac_op (fun op ->
      List.for_all
        (fun intr ->
          List.for_all
            (fun filter -> Test_memo.memo_agrees ~filter op intr)
            [ true; false ])
        (intrinsic_pool ()))

(* a random, mostly invalid matching of such an operator renders exactly
   as the oracle renders it *)
let prop_describe =
  QCheck.Test.make ~count:cases ~name:"describe = oracle"
    (QCheck.make
       ~print:(fun (m : Matching.t) ->
         Printf.sprintf "%s on %s" (Dsl.print m.Matching.view.Mac_view.op)
           m.Matching.intr.Intrinsic.name)
       (gen_matching_of gen_mac_op))
    (fun m -> Matching.describe m = Describe_oracle.describe m)

(* --- append-only logs ------------------------------------------------- *)

module Fs_io = Amos_service.Fs_io

(* every log reader (journal, known-bad markers, observations) trusts
   [complete_lines] to keep exactly the whole lines and to flag a torn
   tail; empty lines drop out, as every reader ignores them *)
let prop_complete_lines =
  let no_newline =
    QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; ' '; '\r' ]) (0 -- 4))
  in
  QCheck.Test.make ~count:cases
    ~name:"complete_lines keeps whole lines and flags the fragment"
    (QCheck.make
       ~print:QCheck.Print.(pair (list string) string)
       QCheck.Gen.(pair (list_size (0 -- 6) no_newline) no_newline))
    (fun (ls, f) ->
      let text = String.concat "" (List.map (fun l -> l ^ "\n") ls) ^ f in
      Fs_io.complete_lines text = (List.filter (fun l -> l <> "") ls, f <> ""))

(* --- JSON codec -------------------------------------------------------- *)

module Json = Amos_server.Json

(* every byte value, weighted toward the ones the writer escapes and
   the reader treats specially *)
let gen_json_bytes =
  QCheck.Gen.(
    string_size
      ~gen:
        (frequency
           [
             (3, char);
             (2, printable);
             ( 1,
               oneofl
                 [
                   '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127';
                   '\255';
                 ] );
           ])
      (0 -- 12))

let gen_json =
  QCheck.Gen.(
    let leaf =
      frequency
        [
          (1, return Json.Null);
          (1, map (fun b -> Json.Bool b) bool);
          ( 2,
            map
              (fun i -> Json.Int i)
              (oneof [ int; small_signed_int; oneofl [ 0; min_int; max_int ] ])
          );
          ( 2,
            map
              (fun f -> Json.Float f)
              (oneof
                 [
                   float;
                   oneofl
                     [
                       0.; -0.; 0.1; 1e300; 5e-324; nan; infinity; neg_infinity;
                     ];
                 ]) );
          (3, map (fun s -> Json.String s) gen_json_bytes);
        ]
    in
    fix
      (fun self depth ->
        if depth = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 1,
                map
                  (fun l -> Json.List l)
                  (list_size (0 -- 4) (self (depth - 1))) );
              ( 1,
                map
                  (fun l -> Json.Obj l)
                  (list_size (0 -- 4) (pair gen_json_bytes (self (depth - 1))))
              );
            ])
      3)

let print_json v = String.escaped (Json_oracle.to_string v)

(* the reader's whole answer: the value, or the error with its offset *)
let reader_agrees text =
  compare (Json.of_string text) (Json_oracle.of_string text) = 0

let prop_json_writer =
  QCheck.Test.make ~count:cases ~name:"writer bytes = oracle"
    (QCheck.make ~print:print_json gen_json)
    (fun v -> Json.to_string v = Json_oracle.to_string v)

(* a rendering, its truncations, and copies with 1-3 flipped bytes *)
let prop_json_reader =
  QCheck.Test.make ~count:cases
    ~name:"reader = oracle on renderings, truncations and flipped bytes"
    (QCheck.make
       ~print:(fun (v, _, _) -> print_json v)
       QCheck.Gen.(
         triple gen_json
           (list_size (1 -- 4) nat)
           (list_size (1 -- 4) (list_size (1 -- 3) (pair nat (1 -- 255))))))
    (fun (v, cuts, flips) ->
      let text = Json_oracle.to_string v in
      let n = String.length text in
      let flipped positions =
        let b = Bytes.of_string text in
        List.iter
          (fun (i, x) ->
            let i = i mod n in
            Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x)))
          positions;
        Bytes.to_string b
      in
      List.for_all reader_agrees
        ((text :: List.map (fun c -> String.sub text 0 (c mod (n + 1))) cuts)
        @ List.map flipped flips))

(* fragments no rendering contains: every escape form, broken escapes,
   number edges and cut literals *)
let prop_json_reader_soup =
  let fragments =
    [ "{"; "}"; "["; "]"; ","; ":"; " "; "\n"; "\""; "\\"; "\\u"; "\\u00e9";
      "\\u20AC"; "\\uD83D"; "\\u0zz1"; "\\/"; "\\b"; "\\f"; "\\x"; "0"; "-";
      "12"; "."; "e"; "E+"; "1e999"; "99999999999999999999"; "-0.5"; "true";
      "tru"; "null"; "false"; "\000"; "\031"; "\255"; "a" ]
  in
  QCheck.Test.make ~count:cases ~name:"reader = oracle on token soup"
    (QCheck.make ~print:String.escaped
       QCheck.Gen.(
         map (String.concat "") (list_size (0 -- 12) (oneofl fragments))))
    reader_agrees

(* --- plan loader = oracle ------------------------------------------- *)

(* Real plans: the first two mappings of one configuration per suite
   kind, on the first preset that maps it, each with its default
   schedule and a random one. *)
let plan_corpus =
  lazy
    (let accels =
       [ Accelerator.a100 (); Accelerator.avx512_cpu (); Accelerator.ascend_like () ]
     in
     let rng = Rng.create 2027 in
     List.concat_map
       (fun kind ->
         let op = Suites.representative ~batch:1 kind in
         match
           List.find_map
             (fun a ->
               match Compiler.mappings a op with
               | [] -> None
               | ms -> Some (a, List.filteri (fun i _ -> i < 2) ms))
             accels
         with
         | None -> []
         | Some (accel, ms) ->
             List.concat_map
               (fun m ->
                 [ (accel, op, m, Schedule.default m);
                   (accel, op, m, Schedule.random rng m) ])
               ms)
       Ops.all_kinds
     |> Array.of_list)

type plan_mutation =
  | Drop of int
  | Duplicate of int * int
  | Shuffle of int
  | Blank of int * string
  | Bad_split_before of int * string
  | Flip of int * int
  | Truncate of int
  | Src_perm of string
  | Conflicting of int * int

let gen_plan_mutation =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun i -> Drop i) nat);
        (2, map2 (fun i j -> Duplicate (i, j)) nat nat);
        (1, map (fun s -> Shuffle s) nat);
        (1, map2 (fun i b -> Blank (i, b)) nat (oneofl [ ""; " "; "\t"; "\r" ]));
        ( 2,
          map2
            (fun i v -> Bad_split_before (i, v))
            nat
            (oneofl [ "1 1"; "x 1 1"; "1 1 1 1"; "99999999999999999999 1 1"; "0 1 1" ])
        );
        (3, map2 (fun i x -> Flip (i, x)) nat (1 -- 255));
        (1, map (fun n -> Truncate n) nat);
        (2, map2 (fun i j -> Conflicting (i, j)) nat nat);
        ( 2,
          map
            (fun v -> Src_perm v)
            (oneofl
               [ "0,5"; "-1,0"; "1,1"; "0,0"; "1,0"; "0,1"; "0,1,2"; "0"; "a,b";
                 "0,,1"; "+1,0"; "0x0,1"; "5,-3" ]) );
      ])

let starts_with prefix l =
  String.length l >= String.length prefix
  && String.sub l 0 (String.length prefix) = prefix

let mutate_plan text mutation =
  let lines = String.split_on_char '\n' text in
  let n = List.length lines in
  let at i = i mod n in
  let join = String.concat "\n" in
  let insert_before j l =
    join (List.concat (List.mapi (fun k x -> if k = at j then [ l; x ] else [ x ]) lines))
  in
  match mutation with
  | Drop i -> join (List.filteri (fun k _ -> k <> at i) lines)
  | Duplicate (i, j) -> insert_before j (List.nth lines (at i))
  | Shuffle seed ->
      let st = Random.State.make [| seed |] in
      join
        (List.map snd
           (List.sort compare (List.map (fun l -> (Random.State.bits st, l)) lines)))
  | Blank (i, b) -> join (List.mapi (fun k l -> if k = at i then b else l) lines)
  | Bad_split_before (i, v) -> (
      let splits = List.filter (starts_with "split ") lines in
      match splits with
      | [] -> text
      | _ ->
          let good = List.nth splits (i mod List.length splits) in
          let name = List.nth (String.split_on_char ' ' good) 1 in
          join
            (List.concat_map
               (fun l -> if l == good then [ Printf.sprintf "split %s %s" name v; l ] else [ l ])
               lines))
  | Conflicting (i, j) ->
      (* line [i] with every digit advanced, inserted before line [j]:
         the same key with another value *)
      let advance c =
        if c >= '0' && c <= '9' then Char.chr (48 + ((Char.code c - 47) mod 10)) else c
      in
      insert_before j (String.map advance (List.nth lines (at i)))
  | Flip _ when text = "" -> text
  | Flip (i, x) ->
      let b = Bytes.of_string text in
      let i = i mod Bytes.length b in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
      Bytes.to_string b
  | Truncate c -> String.sub text 0 (c mod (String.length text + 1))
  | Src_perm v ->
      join
        (List.map
           (fun l ->
             if starts_with "src_perm " l then "src_perm " ^ v else l)
           lines)

let is_permutation a =
  List.sort compare (Array.to_list a) = List.init (Array.length a) Fun.id

(* [load] agrees with the oracle whenever the text binds by name: no
   [iters] line, or one naming the operator's own iterations.  Where the
   oracle raises or serves a [src_perm] that is not a permutation, [load]
   gives [None].  A text whose [iters] line names other iterations binds
   by position, which the oracle does not know: there [load] must only
   serve a plan that passes Algorithm 1 and the schedule check against
   the operator passed in. *)
let plan_io_agrees accel (op : Operator.t) text =
  let got = Plan_io.load accel op text in
  let render = Option.map (fun (m, s) -> Plan_io.save m s) in
  let own_names =
    List.map (fun (it : Iter.t) -> it.Iter.name) op.Operator.iters
  in
  let iters_line =
    List.find_map
      (fun l ->
        match List.filter (( <> ) "") (String.split_on_char ' ' l) with
        | "iters" :: names -> Some names
        | _ -> None)
      (String.split_on_char '\n' text)
  in
  match iters_line with
  | Some names when names <> own_names -> (
      match got with
      | None -> true
      | Some (m, s) ->
          m.Mapping.matching.Matching.view.Mac_view.op == op
          && Matching.validate m.Mapping.matching
          && Schedule.validate m s)
  | Some _ | None -> (
      match Plan_io_oracle.load accel op text with
      | exception Invalid_argument _ -> got = None
      | Some (m, _) when not (is_permutation m.Mapping.matching.Matching.src_perm)
        ->
          got = None
      | want -> render got = render want)

(* corpus plan [i] as [Plan_io.save] writes it, with or without each
   optional header line *)
let corpus_text (i, prov, tuned, iters) =
  let corpus = Lazy.force plan_corpus in
  let accel, op, m, s = corpus.(i mod Array.length corpus) in
  let provenance =
    if prov then Some { Plan_io.source_accel = "V100"; source_fingerprint = "00ff" }
    else None
  in
  let text =
    Plan_io.save ?provenance ?tuning_seconds:(if tuned then Some 1.5 else None) m s
  in
  let text =
    if iters then text
    else
      String.concat "\n"
        (List.filter
           (fun l -> not (starts_with "iters " l))
           (String.split_on_char '\n' text))
  in
  (accel, op, text)

(* the text after each prefix of the mutation list, the whole list first *)
let mutated_texts (plan, muts) =
  let accel, op, text = corpus_text plan in
  (accel, op, List.fold_left (fun acc mu -> mutate_plan (List.hd acc) mu :: acc) [ text ] muts)

let prop_plan_io =
  QCheck.Test.make ~count:cases ~name:"load = oracle on real plans, mutated"
    (QCheck.make
       ~print:(fun case ->
         let _, _, texts = mutated_texts case in
         String.concat "\n--- after one mutation less:\n" texts)
       QCheck.Gen.(
         pair (quad nat bool bool bool) (list_size (0 -- 3) gen_plan_mutation)))
    (fun case ->
      let accel, op, texts = mutated_texts case in
      List.for_all (plan_io_agrees accel op) texts)

(* [props.mapping_memo] runs first: [props.algorithm1]'s random
   operators alone fill the 512-key memo, after which no new structure
   is admitted and a repeat request misses like the first *)
let suites =
  [
    ("props.mapping_memo", [ to_alcotest prop_mapping_memo ]);
    ( "props.algorithm1",
      List.map to_alcotest
        [ prop_validate_agrees; prop_bitflip_rejected; prop_generator_valid ]
    );
    ("props.migration", [ to_alcotest prop_migration ]);
    ( "props.protocol",
      List.map to_alcotest
        [
          prop_request_roundtrip;
          prop_request_deadline_roundtrip;
          prop_request_stream_envelope_roundtrip;
          prop_request_streamless_bytes_identical;
          prop_response_roundtrip;
        ]
    );
    ( "props.bin_matrix",
      bm_equal_padding_regression
      :: List.map to_alcotest
           [
             prop_bm_mul;
             prop_bm_transpose;
             prop_bm_equal;
             prop_bm_row_col;
             prop_bm_scratch_alias;
           ] );
    ("props.fingerprint", [ to_alcotest prop_fingerprint_oracle ]);
    ("props.describe", [ to_alcotest prop_describe ]);
    ("props.schedule_menus", [ to_alcotest prop_schedule_menus ]);
    ("props.reference", [ to_alcotest prop_reference ]);
    ("props.log_lines", [ to_alcotest prop_complete_lines ]);
    ( "props.economy",
      List.map to_alcotest
        [
          prop_bytes_accounted;
          prop_eviction_order;
          prop_score_translation_invariant;
        ] );
    ("props.retain_table", [ to_alcotest prop_retain_table ]);
    ("props.plan_log", [ to_alcotest prop_plan_log ]);
    ( "props.json",
      List.map to_alcotest
        [ prop_json_writer; prop_json_reader; prop_json_reader_soup ] );
    ("props.plan_io", [ to_alcotest prop_plan_io ]);
  ]
