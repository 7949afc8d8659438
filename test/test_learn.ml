(* The learned cost model layer: observation-log crash consistency
   under injected faults, calibration model round-trips and algebraic
   invariants (QCheck), the identity-screen bit-identity the bench gate
   depends on, and the [cache fsck] view of the observation log.

   Deterministic like the rest of the property suite: the QCheck RNG is
   seeded from QCHECK_SEED (default 421) so CI can sweep seeds without
   touching the code. *)

open Amos
module Ops = Amos_workloads.Ops
module Fs_io = Amos_service.Fs_io
module Clock = Amos_service.Clock
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Par_tune = Amos_service.Par_tune
module Obs_log = Amos_learn.Obs_log
module Calibrate = Amos_learn.Calibrate
module Features = Amos_learn.Features
module Screen = Amos_learn.Screen

let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> 421)
  | None -> 421

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t

let cases = 200

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let an_op () = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 ()

(* bit-exact float comparison: round-trips and identity invariants are
   claimed to the bit, so the checks must be too *)
let feq a b = Int64.bits_of_float a = Int64.bits_of_float b

let opt_feq a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> feq a b
  | _ -> false

let model_eq (a : Calibrate.model) (b : Calibrate.model) =
  Array.length a.weights = Array.length b.weights
  && Array.for_all2 feq a.weights b.weights
  && opt_feq a.measure_cut b.measure_cut
  && opt_feq a.survivor_cut b.survivor_cut
  && feq a.rms_before b.rms_before
  && feq a.rms_after b.rms_after
  && a.n_obs = b.n_obs

(* --- generators ----------------------------------------------------- *)

let gen_features =
  QCheck.Gen.(array_repeat Features.dim (float_bound_exclusive 8.))

let gen_weights =
  QCheck.Gen.(
    array_repeat Features.dim (map (fun f -> f -. 3.) (float_bound_exclusive 6.)))

let gen_cut =
  QCheck.Gen.(
    oneof
      [ return None; map (fun f -> Some (1. +. f)) (float_bound_exclusive 2.) ])

let gen_model =
  QCheck.Gen.(
    gen_weights >>= fun weights ->
    gen_cut >>= fun measure_cut ->
    gen_cut >>= fun survivor_cut ->
    float_bound_exclusive 2. >>= fun rms_before ->
    float_bound_exclusive 2. >>= fun rms_after ->
    int_range 0 100_000 >>= fun n_obs ->
    return
      { Calibrate.weights; measure_cut; survivor_cut; rms_before; rms_after;
        n_obs })

let gen_obs =
  QCheck.Gen.(
    list_size (int_range 0 30)
      (triple gen_features
         (map (fun f -> 0.01 +. f) (float_bound_exclusive 10.))
         (map (fun f -> 0.01 +. f) (float_bound_exclusive 10.))))

let print_floats a =
  String.concat " " (List.map (Printf.sprintf "%h") (Array.to_list a))

let print_model (m : Calibrate.model) =
  Printf.sprintf "weights [%s] n_obs %d" (print_floats m.weights) m.n_obs

let print_obs obs =
  String.concat "; "
    (List.map
       (fun (x, p, m) -> Printf.sprintf "([%s], %h, %h)" (print_floats x) p m)
       obs)

(* --- observation log -------------------------------------------------- *)

let some_features = [| 1.5; 0.25; 3.0 |]

let append_simple log ~fingerprint ~predicted ~measured =
  Obs_log.append log ~fingerprint ~accel:"toy" ~predicted ~measured
    ~features:some_features

let obs_log_tests =
  [
    Alcotest.test_case "create-stamps-and-roundtrips-bit-exact" `Quick
      (fun () ->
        let dir = Temp.dir "amos-learn-log" in
        let clock = Clock.virtual_ ~now:123.5 () in
        let log = Obs_log.create ~clock ~dir () in
        Obs_log.append log ~fingerprint:"fp-a" ~accel:"v100"
          ~predicted:0x1.91eb851eb851fp-4 ~measured:2.5e-3
          ~features:[| 0x1.8p0; 3.25; 0. |];
        Clock.advance clock 2.25;
        Obs_log.append log ~fingerprint:"fp-b" ~accel:"avx512" ~predicted:1.0
          ~measured:2.0 ~features:[| 7.5 |];
        (match Obs_log.read ~dir () with
        | [ a; b ] ->
            Alcotest.(check string) "fp" "fp-a" a.Obs_log.fingerprint;
            Alcotest.(check string) "accel" "v100" a.Obs_log.accel;
            Alcotest.(check bool) "at" true (feq a.Obs_log.at 123.5);
            Alcotest.(check bool) "predicted bit-exact" true
              (feq a.Obs_log.predicted 0x1.91eb851eb851fp-4);
            Alcotest.(check bool) "measured bit-exact" true
              (feq a.Obs_log.measured 2.5e-3);
            Alcotest.(check bool) "features bit-exact" true
              (Array.for_all2 feq a.Obs_log.features [| 0x1.8p0; 3.25; 0. |]);
            Alcotest.(check bool) "clock advanced" true
              (feq b.Obs_log.at 125.75);
            Alcotest.(check string) "second fp" "fp-b" b.Obs_log.fingerprint
        | l ->
            Alcotest.failf "expected 2 records, read %d" (List.length l));
        let s = Obs_log.scan ~dir () in
        Alcotest.(check int) "scan records" 2 s.Obs_log.records;
        Alcotest.(check int) "scan skipped" 0 s.Obs_log.skipped;
        Alcotest.(check bool) "scan not torn" false s.Obs_log.torn);
    Alcotest.test_case "torn-append-is-skipped-then-healed" `Quick (fun () ->
        let dir = Temp.dir "amos-learn-torn" in
        let clock = Clock.virtual_ ~now:10. () in
        let log = Obs_log.create ~clock ~dir () in
        append_simple log ~fingerprint:"fp-1" ~predicted:1.5 ~measured:2.0;
        (* the next writer dies 7 bytes into its O_APPEND write *)
        let faulty =
          Fs_io.faulty [ { Fs_io.op = Append; after = 0; mode = Torn 7 } ]
        in
        let flog = Obs_log.create ~fs:faulty ~clock ~dir () in
        (match
           append_simple flog ~fingerprint:"fp-2" ~predicted:1.0 ~measured:1.0
         with
        | () -> Alcotest.fail "torn append must crash"
        | exception Fs_io.Crashed _ -> ());
        (* a clean reader ignores the fragment *)
        Alcotest.(check int) "fragment ignored" 1
          (List.length (Obs_log.read ~dir ()));
        let s = Obs_log.scan ~dir () in
        Alcotest.(check bool) "scan sees the tear" true s.Obs_log.torn;
        Alcotest.(check int) "records intact" 1 s.Obs_log.records;
        (* heal terminates the fragment; it costs one skipped line *)
        Alcotest.(check bool) "heal repairs" true (Obs_log.heal ~dir ());
        Alcotest.(check bool) "heal idempotent" false (Obs_log.heal ~dir ());
        let s2 = Obs_log.scan ~dir () in
        Alcotest.(check bool) "tear gone" false s2.Obs_log.torn;
        Alcotest.(check int) "fragment now skipped" 1 s2.Obs_log.skipped;
        (* later appends land on a fresh line *)
        let log2 = Obs_log.create ~clock ~dir () in
        append_simple log2 ~fingerprint:"fp-3" ~predicted:3.0 ~measured:4.0;
        match Obs_log.read ~dir () with
        | [ a; b ] ->
            Alcotest.(check string) "old record survives" "fp-1"
              a.Obs_log.fingerprint;
            Alcotest.(check string) "new record lands" "fp-3"
              b.Obs_log.fingerprint
        | l -> Alcotest.failf "expected 2 records, read %d" (List.length l));
    Alcotest.test_case "corrupt-line-is-skipped-not-fatal" `Quick (fun () ->
        let dir = Temp.dir "amos-learn-corrupt" in
        let log = Obs_log.create ~dir () in
        append_simple log ~fingerprint:"fp-1" ~predicted:1.0 ~measured:2.0;
        let fs = Fs_io.real () in
        Fs_io.append_line fs
          (Filename.concat dir Obs_log.file_name)
          "obs not-a-number nonsense x y z";
        append_simple log ~fingerprint:"fp-2" ~predicted:2.0 ~measured:3.0;
        (match Obs_log.read ~dir () with
        | [ a; b ] ->
            Alcotest.(check string) "first" "fp-1" a.Obs_log.fingerprint;
            Alcotest.(check string) "second" "fp-2" b.Obs_log.fingerprint
        | l -> Alcotest.failf "expected 2 records, read %d" (List.length l));
        let s = Obs_log.scan ~dir () in
        Alcotest.(check int) "skipped counted" 1 s.Obs_log.skipped;
        Alcotest.(check int) "records counted" 2 s.Obs_log.records);
    Alcotest.test_case "unknown-version-rejected-typed" `Quick (fun () ->
        let dir = Temp.dir "amos-learn-version" in
        let fs = Fs_io.real () in
        Fs_io.write_file fs
          (Filename.concat dir Obs_log.file_name)
          "amos-obs 99\nobs fp toy 1 2 3 4\n";
        (match Obs_log.read ~dir () with
        | _ -> Alcotest.fail "future version must not be read"
        | exception Obs_log.Unsupported_obs_log { version; _ } ->
            Alcotest.(check string) "read reports the version" "99" version);
        match Obs_log.scan ~dir () with
        | _ -> Alcotest.fail "future version must not be scanned"
        | exception Obs_log.Unsupported_obs_log { version; _ } ->
            Alcotest.(check string) "scan reports the version" "99" version);
    Alcotest.test_case "observer-swallows-append-failures" `Quick (fun () ->
        let accel = toy_accel () in
        let captured = ref [] in
        ignore
          (Explore.tune_op ~population:4 ~generations:2
             ~observe:(fun ob -> captured := ob :: !captured)
             ~accel (an_op ()));
        let ob =
          match !captured with
          | ob :: _ -> ob
          | [] -> Alcotest.fail "tune produced no observation"
        in
        let dir = Temp.dir "amos-learn-observer" in
        ignore (Obs_log.create ~dir ());
        (* ENOSPC on the first record append: the observer must treat
           the log as best-effort and keep the tune alive *)
        let faulty =
          Fs_io.faulty
            [ { Fs_io.op = Append; after = 0; mode = Fail Unix.ENOSPC } ]
        in
        let flog = Obs_log.create ~fs:faulty ~dir () in
        let observe =
          Obs_log.observer flog ~config:accel.Accelerator.config
            ~fingerprint:"fp" ~accel:"toy"
        in
        observe ob;
        Alcotest.(check int) "failed append dropped" 0
          (List.length (Obs_log.read ~dir ()));
        (* the fault is one-shot: the next observation lands *)
        observe ob;
        Alcotest.(check int) "later appends land" 1
          (List.length (Obs_log.read ~dir ())));
  ]

(* --- calibration ------------------------------------------------------ *)

let model_dir = lazy (Temp.dir "amos-learn-models")
let model_files = ref 0

let fresh_model_path () =
  incr model_files;
  Filename.concat (Lazy.force model_dir) (Printf.sprintf "m%d.amos" !model_files)

let calibrate_tests =
  [
    to_alcotest
      (QCheck.Test.make ~count:cases ~name:"model-save-load-bit-exact"
         (QCheck.make ~print:print_model gen_model)
         (fun m ->
           let path = fresh_model_path () in
           Calibrate.save ~path m;
           model_eq m (Calibrate.load ~path ())));
    to_alcotest
      (QCheck.Test.make ~count:cases ~name:"identity-apply-is-bit-identical"
         (QCheck.make
            ~print:(fun (x, p) -> Printf.sprintf "([%s], %h)" (print_floats x) p)
            QCheck.Gen.(
              pair gen_features
                (map (fun f -> 0.001 +. f) (float_bound_exclusive 100.))))
         (fun (x, p) -> feq (Calibrate.apply Calibrate.identity x p) p));
    to_alcotest
      (QCheck.Test.make ~count:cases
         ~name:"correction-monotone-in-weights"
         (QCheck.make
            ~print:(fun ((x, w), (d, p)) ->
              Printf.sprintf "x [%s] w [%s] d [%s] p %h" (print_floats x)
                (print_floats w) (print_floats d) p)
            QCheck.Gen.(
              pair (pair gen_features gen_weights)
                (pair
                   (array_repeat Features.dim (float_bound_exclusive 2.))
                   (map (fun f -> 0.001 +. f) (float_bound_exclusive 10.)))))
         (fun ((x, w), (d, p)) ->
           (* features are nonnegative by construction (Features.mli), so
              raising any weight can only raise the corrected prediction *)
           let m = { Calibrate.identity with weights = w } in
           let m' =
             { Calibrate.identity with
               weights = Array.mapi (fun i wi -> wi +. d.(i)) w }
           in
           Calibrate.apply m' x p >= Calibrate.apply m x p));
    to_alcotest
      (QCheck.Test.make ~count:100 ~name:"fit-is-deterministic"
         (QCheck.make ~print:print_obs gen_obs)
         (fun obs ->
           (* same observations — fresh physical arrays — must give a
              bit-equal model, CV ridge selection included *)
           let copy = List.map (fun (x, p, m) -> (Array.copy x, p, m)) obs in
           model_eq (Calibrate.fit obs) (Calibrate.fit copy)));
    Alcotest.test_case "fit-of-nothing-is-identity" `Quick (fun () ->
        Alcotest.(check bool) "empty" true
          (Calibrate.is_identity (Calibrate.fit []));
        let junk =
          [
            (Array.make Features.dim 1., 0., 1.);
            (Array.make Features.dim 1., 1., nan);
            ([| 1. |], 1., 1.);
          ]
        in
        Alcotest.(check bool) "unusable observations" true
          (Calibrate.is_identity (Calibrate.fit junk)));
    Alcotest.test_case "fit-derives-cuts-within-bounds" `Quick (fun () ->
        let x i = Array.init Features.dim (fun j -> float_of_int ((i + j) mod 4)) in
        let obs =
          List.init 20 (fun i ->
              (x i, 1.0, 1.0 +. (0.05 *. float_of_int (i mod 5))))
        in
        let m = Calibrate.fit obs in
        (match m.Calibrate.measure_cut with
        | Some c ->
            Alcotest.(check bool) "measure cut in band" true
              (c >= 1.02 && c <= 1.5)
        | None -> Alcotest.fail "fit must derive a measure cut");
        match m.Calibrate.survivor_cut with
        | Some c ->
            Alcotest.(check bool) "survivor cut in band" true
              (c >= 1.25 && c <= 2.5)
        | None -> Alcotest.fail "fit must derive a survivor cut");
    Alcotest.test_case "unknown-model-version-rejected-typed" `Quick (fun () ->
        let fs = Fs_io.real () in
        let path = fresh_model_path () in
        Fs_io.write_file fs path "amos-model 99\nweights 0\n";
        (match Calibrate.load ~path () with
        | _ -> Alcotest.fail "future version must not load"
        | exception Calibrate.Unsupported_model { version; _ } ->
            Alcotest.(check string) "version reported" "99" version);
        let path2 = fresh_model_path () in
        Fs_io.write_file fs path2 "weights 0\n";
        match Calibrate.load ~path:path2 () with
        | _ -> Alcotest.fail "unstamped file must not load"
        | exception Calibrate.Unsupported_model { version; _ } ->
            Alcotest.(check string) "unstamped reported" "(unstamped)" version);
  ]

(* --- screen: the tuner-facing bridge --------------------------------- *)

let small_tune ?model ?observe accel op =
  match
    Explore.tune_op ~population:4 ~generations:2 ?model ?observe ~accel op
  with
  | Some r -> r
  | None -> Alcotest.fail "toy operator must be mappable"

let screen_tests =
  [
    Alcotest.test_case "identity-model-bit-identical-through-tune" `Quick
      (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let base = small_tune accel op in
        let count = ref 0 in
        let with_id =
          small_tune ~model:(Screen.identity ~accel)
            ~observe:(fun _ -> incr count)
            accel op
        in
        Alcotest.(check bool) "best predicted" true
          (feq base.Explore.best.Explore.predicted
             with_id.Explore.best.Explore.predicted);
        Alcotest.(check bool) "best measured" true
          (feq base.Explore.best.Explore.measured
             with_id.Explore.best.Explore.measured);
        Alcotest.(check int) "evaluations" base.Explore.evaluations
          with_id.Explore.evaluations;
        Alcotest.(check bool) "history" true
          (base.Explore.history = with_id.Explore.history);
        Alcotest.(check int) "one observation per simulator measurement"
          (List.length with_id.Explore.history)
          !count);
    Alcotest.test_case "identity-model-bit-identical-across-domains" `Quick
      (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let base = small_tune accel op in
        let par =
          Par_tune.tune ~jobs:2 ~population:4 ~generations:2
            ~model:(Screen.identity ~accel) ~accel
            ~mappings:(Explore.mappings accel op) ()
        in
        Alcotest.(check bool) "best measured" true
          (feq base.Explore.best.Explore.measured
             par.Explore.best.Explore.measured);
        Alcotest.(check int) "evaluations" base.Explore.evaluations
          par.Explore.evaluations;
        Alcotest.(check bool) "history" true
          (base.Explore.history = par.Explore.history));
    Alcotest.test_case "calibrated-cuts-spare-the-simulator" `Quick (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let observations = ref [] in
        let base =
          small_tune
            ~observe:(fun ob ->
              observations :=
                ( Features.of_summary accel.Accelerator.config
                    ob.Explore.ob_summary,
                  ob.Explore.ob_predicted,
                  ob.Explore.ob_measured )
                :: !observations)
            accel op
        in
        let model = Calibrate.fit (List.rev !observations) in
        Alcotest.(check bool) "fit is not identity" false
          (Calibrate.is_identity model);
        let tuned = small_tune ~model:(Screen.of_model ~accel model) accel op in
        Alcotest.(check bool) "never more simulator runs" true
          (List.length tuned.Explore.history
          <= List.length base.Explore.history);
        Alcotest.(check bool) "still finds a plan" true
          (Float.is_finite tuned.Explore.best.Explore.measured
          && tuned.Explore.best.Explore.measured > 0.));
    Alcotest.test_case "unband-exempts-the-best-survivor" `Quick (fun () ->
        let sm =
          {
            Explore.sm_correct = (fun _ p -> p);
            sm_measure_cut = Some 1.2;
            sm_survivor_cut = Some 2.;
          }
        in
        (match Explore.unband ~model:sm ~best:1.0 1.0 with
        | Some
            { Explore.sm_measure_cut = None; sm_survivor_cut = Some c; _ } ->
            Alcotest.(check bool) "survivor cut kept" true (feq c 2.)
        | _ -> Alcotest.fail "best survivor must lose the band cut");
        (match Explore.unband ~model:sm ~best:1.0 1.5 with
        | Some { Explore.sm_measure_cut = Some c; _ } ->
            Alcotest.(check bool) "trailing survivor keeps the band" true
              (feq c 1.2)
        | _ -> Alcotest.fail "trailing survivor must keep the cut");
        (match
           Explore.unband
             ~model:{ sm with Explore.sm_measure_cut = None }
             ~best:1.0 1.0
         with
        | Some { Explore.sm_measure_cut = None; _ } -> ()
        | _ -> Alcotest.fail "cut-free model passes through");
        match Explore.unband ~best:1.0 1.0 with
        | None -> ()
        | Some _ -> Alcotest.fail "no model stays no model");
  ]

(* --- mapping_seed memo (determinism of the parallel fan-out) ---------- *)

let seed_tests =
  [
    Alcotest.test_case "mapping-seed-structural-and-memo-stable" `Quick
      (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let mappings_of () =
          List.concat_map
            (fun intr ->
              List.map Mapping.make (Mapping_gen.generate_op op intr))
            accel.Accelerator.intrinsics
        in
        let a = mappings_of () and b = mappings_of () in
        Alcotest.(check bool) "nonempty space" true (a <> []);
        List.iter2
          (fun m m' ->
            (* second call hits the memo; it must equal the first *)
            Alcotest.(check int) "memo stable" (Explore.mapping_seed m)
              (Explore.mapping_seed m);
            (* physically distinct but structurally equal mapping: the
               seed is a hash of structure, not of Iter.t identity *)
            Alcotest.(check int) "structural seed" (Explore.mapping_seed m)
              (Explore.mapping_seed m');
            Alcotest.(check bool) "structural key" true
              (Explore.mapping_key m = Explore.mapping_key m'))
          a b);
  ]

(* --- cache fsck sees the observation log ------------------------------ *)

let small_budget =
  { Fingerprint.population = 4; generations = 2; measure_top = 2; seed = 42 }

let fsck_tests =
  [
    Alcotest.test_case "fsck-counts-and-heals-the-obs-log" `Quick (fun () ->
        (* [cache fsck] reports the observation log through [Obs_log.scan]
           and repairs it through [Obs_log.heal]; the plan cache's own
           fsck never looks at it *)
        let accel = toy_accel () in
        let op = an_op () in
        let dir = Temp.dir "amos-learn-fsck" in
        let cache = Plan_cache.create ~dir () in
        let value =
          let r = small_tune accel op in
          let c = r.Explore.best.Explore.candidate in
          Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule)
        in
        Plan_cache.store cache ~accel ~op ~budget:small_budget value;
        let log = Obs_log.create ~dir () in
        append_simple log ~fingerprint:"fp-1" ~predicted:1.0 ~measured:2.0;
        append_simple log ~fingerprint:"fp-2" ~predicted:2.0 ~measured:3.0;
        let s = Obs_log.scan ~dir () in
        Alcotest.(check int) "obs records" 2 s.Obs_log.records;
        Alcotest.(check int) "obs skipped" 0 s.Obs_log.skipped;
        Alcotest.(check bool) "no tear" false (Obs_log.heal ~dir ());
        Alcotest.(check bool) "cache clean" true
          (Plan_cache.fsck_clean (Plan_cache.fsck ~dir ()));
        (* garbage line plus a torn trailing fragment, written raw — the
           crash shapes the log must absorb without dirtying the cache *)
        let oc =
          open_out_gen [ Open_append ] 0o644
            (Filename.concat dir Obs_log.file_name)
        in
        output_string oc "garbage line\nobs fp-3 toy 1.0";
        close_out oc;
        let s2 = Obs_log.scan ~dir () in
        Alcotest.(check bool) "tear seen" true s2.Obs_log.torn;
        Alcotest.(check int) "records preserved" 2 s2.Obs_log.records;
        Alcotest.(check int) "garbage skipped" 1 s2.Obs_log.skipped;
        Alcotest.(check bool) "obs damage never dirties the cache" true
          (Plan_cache.fsck_clean (Plan_cache.fsck ~dir ()));
        Alcotest.(check bool) "tear repaired" true (Obs_log.heal ~dir ());
        Alcotest.(check bool) "repair sticks" false (Obs_log.heal ~dir ());
        let s3 = Obs_log.scan ~dir () in
        Alcotest.(check int) "records agree" 2 s3.Obs_log.records;
        Alcotest.(check int) "healed fragment now skipped" 2 s3.Obs_log.skipped;
        Alcotest.(check bool) "no tear after repair" false s3.Obs_log.torn;
        (* appends after repair land on a fresh line *)
        let log2 = Obs_log.create ~dir () in
        append_simple log2 ~fingerprint:"fp-4" ~predicted:3.0 ~measured:4.0;
        Alcotest.(check int) "append after repair lands" 3
          (List.length (Obs_log.read ~dir ())));
  ]

let suites =
  [
    ("learn.obs_log", obs_log_tests);
    ("learn.calibrate", calibrate_tests);
    ("learn.screen", screen_tests);
    ("learn.seed", seed_tests);
    ("learn.fsck", fsck_tests);
  ]
