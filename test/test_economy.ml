(* The cache economy under a virtual clock.

   Every test here drives retention scoring, budget eviction and byte
   accounting through [Clock.virtual_]: age decay is exercised by
   advancing a counter, never by sleeping, so the suite pins eviction
   *order* exactly — which fingerprint dies first under pressure and
   which survives — instead of asserting fuzzy time windows. *)

open Amos
module Ops = Amos_workloads.Ops
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Retain = Amos_service.Retain
module Clock = Amos_service.Clock
module Fs_io = Amos_service.Fs_io
module Hot_cache = Amos_server.Hot_cache

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let small_budget =
  { Fingerprint.population = 4; generations = 2; measure_top = 2; seed = 42 }

(* three structurally distinct gemms with equally long DSL texts, so
   their serialized entries have (near-)identical sizes and retention
   scores are dominated by tuning_seconds, not byte noise *)
let op_a () = Ops.gemm ~m:4 ~n:4 ~k:4 ()
let op_b () = Ops.gemm ~m:8 ~n:8 ~k:8 ()
let op_c () = Ops.gemm ~m:6 ~n:6 ~k:6 ()

let fp_of accel op = Fingerprint.key ~accel ~op ~budget:small_budget

let store ?tuning_seconds cache ~accel op =
  Plan_cache.store ?tuning_seconds cache ~accel ~op ~budget:small_budget
    Plan_cache.Scalar

let lookup cache ~accel op =
  Plan_cache.lookup cache ~accel ~op ~budget:small_budget

(* sum of the live records' entry sizes — the ground truth the
   accounting must agree with *)
let real_entry_bytes = Log_records.entry_bytes

let check_float = Alcotest.(check (float 1e-9))

(* --- retention scoring ---------------------------------------------- *)

let retain_tests =
  [
    Alcotest.test_case "score-is-tuning-seconds-per-byte" `Quick (fun () ->
        let item =
          { Retain.bytes = 100; tuning_seconds = 10.; last_access = 0. }
        in
        check_float "fresh entry" 0.1 (Retain.score ~now:0. item));
    Alcotest.test_case "score-halves-per-half-life" `Quick (fun () ->
        let item =
          { Retain.bytes = 100; tuning_seconds = 10.; last_access = 0. }
        in
        check_float "one half-life" 0.05
          (Retain.score ~now:Retain.default_half_life item);
        check_float "two half-lives" 0.025
          (Retain.score ~now:(2. *. Retain.default_half_life) item);
        check_float "custom half-life" 0.05
          (Retain.score ~half_life:10. ~now:10. item));
    Alcotest.test_case "zero-byte-entries-divide-by-one" `Quick (fun () ->
        let item =
          { Retain.bytes = 0; tuning_seconds = 7.; last_access = 0. }
        in
        check_float "no division by zero" 7. (Retain.score ~now:0. item));
    Alcotest.test_case "future-access-never-boosts" `Quick (fun () ->
        (* a stamp ahead of now (clock skew between handles) clamps to
           age 0 rather than inflating the score exponentially *)
        let item =
          { Retain.bytes = 100; tuning_seconds = 10.; last_access = 500. }
        in
        check_float "clamped to fresh" (Retain.score ~now:500. item)
          (Retain.score ~now:0. item));
    Alcotest.test_case "budget-over-checks" `Quick (fun () ->
        let chk msg want b ~bytes ~tuning_seconds =
          Alcotest.(check bool) msg want (Retain.over b ~bytes ~tuning_seconds)
        in
        chk "unlimited never over" false Retain.unlimited ~bytes:max_int
          ~tuning_seconds:1e18;
        let by = { Retain.max_bytes = Some 10; max_tuning_seconds = None } in
        chk "at the byte budget" false by ~bytes:10 ~tuning_seconds:1e9;
        chk "past the byte budget" true by ~bytes:11 ~tuning_seconds:0.;
        let ts = { Retain.max_bytes = None; max_tuning_seconds = Some 2. } in
        chk "at the tuning budget" false ts ~bytes:max_int ~tuning_seconds:2.;
        chk "past the tuning budget" true ts ~bytes:0 ~tuning_seconds:2.5);
  ]

(* --- persistent cache: accounting ------------------------------------ *)

let accounting_tests =
  [
    Alcotest.test_case "accounted-bytes-match-disk" `Quick (fun () ->
        let accel = toy_accel () in
        let dir = Temp.dir "amos-eco-bytes" in
        let clock = Clock.virtual_ () in
        let cache = Plan_cache.create ~clock ~dir () in
        store cache ~accel (op_a ()) ~tuning_seconds:2.;
        store cache ~accel (op_b ()) ~tuning_seconds:3.;
        store cache ~accel (op_c ()) ~tuning_seconds:4.;
        Alcotest.(check int) "three live entries" 3
          (Plan_cache.disk_size cache);
        Alcotest.(check int) "accounted = stat'd" (real_entry_bytes dir)
          (Plan_cache.disk_bytes cache);
        check_float "tuning seconds sum" 9.
          (Plan_cache.disk_tuning_seconds cache));
    Alcotest.test_case "overwrite-does-not-double-count" `Quick (fun () ->
        let accel = toy_accel () in
        let dir = Temp.dir "amos-eco-overwrite" in
        let cache = Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir () in
        store cache ~accel (op_a ()) ~tuning_seconds:2.;
        store cache ~accel (op_a ()) ~tuning_seconds:6.5;
        Alcotest.(check int) "still one entry" 1 (Plan_cache.disk_size cache);
        Alcotest.(check int) "bytes counted once" (real_entry_bytes dir)
          (Plan_cache.disk_bytes cache);
        check_float "latest tuning cost wins" 6.5
          (Plan_cache.disk_tuning_seconds cache));
    Alcotest.test_case "accounting-survives-reopen" `Quick (fun () ->
        let accel = toy_accel () in
        let dir = Temp.dir "amos-eco-reopen" in
        let cache = Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir () in
        store cache ~accel (op_a ()) ~tuning_seconds:2.5;
        store cache ~accel (op_b ()) ~tuning_seconds:3.5;
        let reopened =
          Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir ()
        in
        Alcotest.(check int) "bytes replayed from journal"
          (real_entry_bytes dir)
          (Plan_cache.disk_bytes reopened);
        check_float "tuning cost replayed" 6.
          (Plan_cache.disk_tuning_seconds reopened);
        match
          Plan_cache.info reopened ~fingerprint:(fp_of accel (op_a ()))
        with
        | Some it -> check_float "per-entry cost" 2.5 it.Retain.tuning_seconds
        | None -> Alcotest.fail "entry must be accounted after reopen");
    Alcotest.test_case "legacy-journal-lines-account-conservatively" `Quick
      (fun () ->
        (* a version-1 directory whose add line carries no value record,
           as a pre-economy writer left it: the import must still
           account the entry (its size, the default cost), never drop
           it or make it worth zero *)
        let accel = toy_accel () in
        let dir = Temp.dir "amos-eco-legacy" in
        Plan_cache_oracle.store ~tuning_seconds:9.
          (Plan_cache_oracle.create ~clock:(Clock.virtual_ ()) ~dir ())
          ~accel ~op:(op_a ()) ~budget:small_budget Plan_cache.Scalar;
        let journal = Filename.concat dir "journal.txt" in
        let lines =
          In_channel.with_open_bin journal In_channel.input_all
          |> String.split_on_char '\n'
        in
        Out_channel.with_open_bin journal (fun oc ->
            List.iter
              (fun line ->
                match String.split_on_char ' ' line with
                | "add" :: fp :: _ -> Printf.fprintf oc "add %s\n" fp
                | _ -> if line <> "" then Printf.fprintf oc "%s\n" line)
              lines);
        let entry_file =
          Filename.concat dir (fp_of accel (op_a ()) ^ ".plan")
        in
        let file_size = (Unix.stat entry_file).Unix.st_size in
        let reopened =
          Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir ()
        in
        Alcotest.(check int) "legacy entry accounted by its size" file_size
          (Plan_cache.disk_bytes reopened);
        Alcotest.(check int) "and the records agree" file_size
          (real_entry_bytes dir);
        check_float "legacy entry gets the default cost"
          Retain.default_tuning_seconds
          (Plan_cache.disk_tuning_seconds reopened);
        match lookup reopened ~accel (op_a ()) with
        | Some Plan_cache.Scalar -> ()
        | _ -> Alcotest.fail "legacy entry must still be served");
    Alcotest.test_case "fsck-rebuilds-drifted-accounting" `Quick (fun () ->
        (* records whose value fields lie (hand-edited) are corrected by
           fsck from the entries themselves *)
        let accel = toy_accel () in
        let dir = Temp.dir "amos-eco-fsck" in
        let cache = Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir () in
        store cache ~accel (op_a ()) ~tuning_seconds:2.;
        store cache ~accel (op_b ()) ~tuning_seconds:3.;
        let drifted =
          List.map
            (fun line ->
              match String.split_on_char ' ' line with
              | "add" :: fp :: _ :: _ :: rest ->
                  String.concat " " ("add" :: fp :: "999999" :: "50.000000" :: rest)
              | _ -> line)
            (Log_records.lines dir)
        in
        Out_channel.with_open_bin (Log_records.journal dir) (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) drifted);
        let drifted = Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir () in
        Alcotest.(check int) "drifted journal believed at first"
          (2 * 999999)
          (Plan_cache.disk_bytes drifted);
        let r = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "fsck measures the real bytes"
          (real_entry_bytes dir) r.Plan_cache.bytes;
        Alcotest.(check bool) "fsck clean" true (Plan_cache.fsck_clean r);
        let repaired =
          Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir ()
        in
        Alcotest.(check int) "repaired journal agrees with disk"
          (real_entry_bytes dir)
          (Plan_cache.disk_bytes repaired);
        check_float "tuning cost restored from tuned_in headers" 5.
          (Plan_cache.disk_tuning_seconds repaired));
  ]

(* --- persistent cache: budget eviction ------------------------------- *)

let eviction_tests =
  [
    Alcotest.test_case "budget-evicts-lowest-score-first" `Quick (fun () ->
        let accel = toy_accel () in
        let dir = Temp.dir "amos-eco-evict" in
        let clock = Clock.virtual_ () in
        let cache =
          Plan_cache.create ~max_tuning_seconds:8. ~clock ~dir ()
        in
        let a, b, c = (op_a (), op_b (), op_c ()) in
        store cache ~accel a ~tuning_seconds:5.;
        store cache ~accel b ~tuning_seconds:1.;
        Alcotest.(check int) "under budget, nothing evicted" 0
          (Plan_cache.stats cache).Plan_cache.budget_evictions;
        (* 5 + 1 + 4 = 10 > 8: evict b (score 1/b), still 9 > 8, then
           c (4/b < 5/b); a — the most expensive exploration — survives *)
        store cache ~accel c ~tuning_seconds:4.;
        Alcotest.(check int) "two budget evictions" 2
          (Plan_cache.stats cache).Plan_cache.budget_evictions;
        Alcotest.(check bool) "cheapest evicted" true
          (Plan_cache.info cache ~fingerprint:(fp_of accel b) = None);
        Alcotest.(check bool) "middle evicted second" true
          (Plan_cache.info cache ~fingerprint:(fp_of accel c) = None);
        Alcotest.(check bool) "most valuable survives" true
          (Plan_cache.info cache ~fingerprint:(fp_of accel a) <> None);
        check_float "budget respected" 5.
          (Plan_cache.disk_tuning_seconds cache);
        (* the log records victims newest-first, and no victim ever
           outscored a survivor *)
        (match Plan_cache.eviction_log cache with
        | [ (fp2, s2, kept2); (fp1, s1, kept1) ] ->
            Alcotest.(check string) "first victim" (fp_of accel b) fp1;
            Alcotest.(check string) "second victim" (fp_of accel c) fp2;
            Alcotest.(check bool) "victim 1 scored lowest" true (s1 <= kept1);
            Alcotest.(check bool) "victim 2 scored lowest" true (s2 <= kept2)
        | log ->
            Alcotest.fail
              (Printf.sprintf "expected 2 log entries, got %d"
                 (List.length log)));
        Alcotest.(check int) "accounting still matches disk"
          (real_entry_bytes dir)
          (Plan_cache.disk_bytes cache));
    Alcotest.test_case "age-decay-flips-eviction-order" `Quick (fun () ->
        let accel = toy_accel () in
        let a, b, c = (op_a (), op_b (), op_c ()) in
        (* aged: a (cost 3) stored two half-lives before b and c (cost 1
           each) — its decayed score 0.75/bytes drops below their 1/bytes,
           so pressure evicts the once-expensive but stale entry *)
        let clock = Clock.virtual_ () in
        let aged =
          Plan_cache.create ~max_tuning_seconds:4.5
            ~clock ~dir:(Temp.dir "amos-eco-aged") ()
        in
        store aged ~accel a ~tuning_seconds:3.;
        Clock.advance clock (2. *. Retain.default_half_life);
        store aged ~accel b ~tuning_seconds:1.;
        store aged ~accel c ~tuning_seconds:1.;
        Alcotest.(check bool) "stale expensive entry evicted" true
          (Plan_cache.info aged ~fingerprint:(fp_of accel a) = None);
        Alcotest.(check bool) "fresh entries survive" true
          (Plan_cache.info aged ~fingerprint:(fp_of accel b) <> None
          && Plan_cache.info aged ~fingerprint:(fp_of accel c) <> None);
        (* control: the identical sequence with no time passing keeps
           the expensive entry and evicts a cheap one instead *)
        let fresh =
          Plan_cache.create ~max_tuning_seconds:4.5
            ~clock:(Clock.virtual_ ()) ~dir:(Temp.dir "amos-eco-fresh") ()
        in
        store fresh ~accel a ~tuning_seconds:3.;
        store fresh ~accel b ~tuning_seconds:1.;
        store fresh ~accel c ~tuning_seconds:1.;
        Alcotest.(check bool) "without decay the expensive entry stays" true
          (Plan_cache.info fresh ~fingerprint:(fp_of accel a) <> None));
    Alcotest.test_case "lru-baseline-is-value-blind" `Quick (fun () ->
        let accel = toy_accel () in
        let a, b, c = (op_a (), op_b (), op_c ()) in
        let run policy dir =
          let clock = Clock.virtual_ () in
          let cache =
            Plan_cache.create ~max_tuning_seconds:7. ~policy ~clock ~dir ()
          in
          store cache ~accel a ~tuning_seconds:4.;
          Clock.advance clock 10.;
          store cache ~accel b ~tuning_seconds:2.;
          Clock.advance clock 10.;
          store cache ~accel c ~tuning_seconds:2.;
          cache
        in
        (* 4 + 2 + 2 = 8 > 7 forces exactly one eviction under both
           policies — but they disagree about the victim *)
        let lru = run `Lru (Temp.dir "amos-eco-lru") in
        Alcotest.(check bool) "lru evicts the oldest regardless of cost" true
          (Plan_cache.info lru ~fingerprint:(fp_of accel a) = None);
        let scored = run `Scored (Temp.dir "amos-eco-scored") in
        Alcotest.(check bool) "scored protects the expensive entry" true
          (Plan_cache.info scored ~fingerprint:(fp_of accel a) <> None);
        Alcotest.(check bool) "scored evicts a cheap entry instead" true
          (Plan_cache.info scored ~fingerprint:(fp_of accel b) = None
          || Plan_cache.info scored ~fingerprint:(fp_of accel c) = None));
    Alcotest.test_case "lookup-refreshes-retention" `Quick (fun () ->
        (* touching an entry re-stamps its access time: a looked-up old
           entry outlives an untouched one of equal cost *)
        let accel = toy_accel () in
        let a, b, c = (op_a (), op_b (), op_c ()) in
        let clock = Clock.virtual_ () in
        let cache =
          Plan_cache.create ~max_tuning_seconds:5. ~clock
            ~dir:(Temp.dir "amos-eco-touch") ()
        in
        store cache ~accel a ~tuning_seconds:2.;
        store cache ~accel b ~tuning_seconds:2.;
        Clock.advance clock Retain.default_half_life;
        ignore (lookup cache ~accel a);
        store cache ~accel c ~tuning_seconds:2.;
        Alcotest.(check bool) "untouched entry evicted" true
          (Plan_cache.info cache ~fingerprint:(fp_of accel b) = None);
        Alcotest.(check bool) "refreshed entry survives" true
          (Plan_cache.info cache ~fingerprint:(fp_of accel a) <> None));
    Alcotest.test_case "memory-hit-after-refresh-protects-disk-entry" `Quick
      (fun () ->
        (* a replay gives the index its own items; a hit served from the
           memory layer must still stamp the index, or trim judges x by
           its replay-time access *)
        let accel = toy_accel () in
        let x, y, z = (op_a (), op_b (), op_c ()) in
        let dir = Temp.dir "amos-eco-refresh" in
        let clock = Clock.virtual_ () in
        let a = Plan_cache.create ~max_tuning_seconds:2.5 ~clock ~dir () in
        store a ~accel x ~tuning_seconds:1.;
        store a ~accel y ~tuning_seconds:1.;
        store (Plan_cache.create ~clock ~dir ()) ~accel z ~tuning_seconds:2.;
        Alcotest.(check bool) "a miss replays the journal" true
          (lookup a ~accel (Ops.gemm ~m:4 ~n:8 ~k:6 ()) = None);
        Clock.advance clock (2. *. Retain.default_half_life);
        Alcotest.(check bool) "x served from memory" true
          (lookup a ~accel x <> None);
        ignore (Plan_cache.trim a);
        Alcotest.(check bool) "x kept" true
          (Plan_cache.info a ~fingerprint:(fp_of accel x) <> None);
        Alcotest.(check bool) "y and z evicted" true
          (Plan_cache.info a ~fingerprint:(fp_of accel y) = None
          && Plan_cache.info a ~fingerprint:(fp_of accel z) = None));
    Alcotest.test_case "trim-enforces-budget-on-grown-dir" `Quick (fun () ->
        (* another process grows the directory past this handle's
           budget; an explicit trim brings it back under *)
        let accel = toy_accel () in
        let dir = Temp.dir "amos-eco-trim" in
        let clock = Clock.virtual_ () in
        let reader =
          Plan_cache.create ~max_tuning_seconds:2.5 ~clock ~dir ()
        in
        let writer = Plan_cache.create ~clock ~dir () in
        store writer ~accel (op_a ()) ~tuning_seconds:1.;
        store writer ~accel (op_b ()) ~tuning_seconds:1.;
        store writer ~accel (op_c ()) ~tuning_seconds:1.;
        Alcotest.(check int) "trim evicts exactly the overflow" 1
          (Plan_cache.trim reader);
        check_float "under budget afterwards" 2.
          (Plan_cache.disk_tuning_seconds reader);
        Alcotest.(check int) "and idempotent" 0 (Plan_cache.trim reader));
    Alcotest.test_case "mem-layer-evicts-lowest-score" `Quick (fun () ->
        (* memory-only cache: capacity pressure uses the same scoring,
           so the cheap plan is the one that falls out *)
        let accel = toy_accel () in
        let cache =
          Plan_cache.create ~mem_capacity:2 ~clock:(Clock.virtual_ ()) ()
        in
        store cache ~accel (op_a ()) ~tuning_seconds:9.;
        store cache ~accel (op_b ()) ~tuning_seconds:1.;
        store cache ~accel (op_c ()) ~tuning_seconds:4.;
        Alcotest.(check int) "capacity held" 2 (Plan_cache.mem_size cache);
        Alcotest.(check int) "one memory eviction" 1
          (Plan_cache.stats cache).Plan_cache.lru_evictions;
        Alcotest.(check bool) "expensive plans still hit" true
          (lookup cache ~accel (op_a ()) <> None
          && lookup cache ~accel (op_c ()) <> None);
        Alcotest.(check bool) "cheap plan fell out" true
          (lookup cache ~accel (op_b ()) = None));
  ]

(* --- hot front cache -------------------------------------------------- *)

let hot_tests =
  [
    Alcotest.test_case "readmit-updates-in-place" `Quick (fun () ->
        (* the PR-4 FIFO re-admitted fingerprints as fresh slots, so a
           hot entry stored twice was accounted twice; admission now
           dedups on fingerprint *)
        let hot = Hot_cache.create ~capacity:4 ~clock:(Clock.virtual_ ()) () in
        Hot_cache.put hot "fp-a" "v1" ~bytes:100 ~tuning_seconds:2.;
        Hot_cache.put hot "fp-a" "v2" ~bytes:120 ~tuning_seconds:3.;
        Alcotest.(check int) "one slot" 1 (Hot_cache.size hot);
        Alcotest.(check int) "bytes counted once" 120 (Hot_cache.bytes hot);
        check_float "cost updated" 3. (Hot_cache.tuning_seconds hot);
        Alcotest.(check int) "no eviction" 0 (Hot_cache.evictions hot);
        Alcotest.(check (option string)) "latest value served" (Some "v2")
          (Hot_cache.find hot "fp-a"));
    Alcotest.test_case "capacity-evicts-lowest-score" `Quick (fun () ->
        let hot = Hot_cache.create ~capacity:2 ~clock:(Clock.virtual_ ()) () in
        Hot_cache.put hot "fp-a" "a" ~bytes:100 ~tuning_seconds:9.;
        Hot_cache.put hot "fp-b" "b" ~bytes:100 ~tuning_seconds:1.;
        Hot_cache.put hot "fp-c" "c" ~bytes:100 ~tuning_seconds:4.;
        Alcotest.(check int) "bounded" 2 (Hot_cache.size hot);
        Alcotest.(check int) "one eviction" 1 (Hot_cache.evictions hot);
        Alcotest.(check (option string)) "cheap plan evicted" None
          (Hot_cache.find hot "fp-b");
        Alcotest.(check bool) "valuable plans retained" true
          (Hot_cache.mem hot "fp-a" && Hot_cache.mem hot "fp-c");
        Alcotest.(check int) "byte accounting follows" 200
          (Hot_cache.bytes hot));
    Alcotest.test_case "byte-budget-evicts" `Quick (fun () ->
        let hot =
          Hot_cache.create ~max_bytes:250 ~capacity:10
            ~clock:(Clock.virtual_ ()) ()
        in
        Hot_cache.put hot "fp-a" "a" ~bytes:100 ~tuning_seconds:1.;
        Hot_cache.put hot "fp-b" "b" ~bytes:100 ~tuning_seconds:5.;
        Hot_cache.put hot "fp-c" "c" ~bytes:100 ~tuning_seconds:3.;
        Alcotest.(check int) "under the byte budget" 200
          (Hot_cache.bytes hot);
        Alcotest.(check (option string)) "lowest value evicted" None
          (Hot_cache.find hot "fp-a"));
    Alcotest.test_case "age-decay-in-hot-layer" `Quick (fun () ->
        let clock = Clock.virtual_ () in
        let hot = Hot_cache.create ~capacity:2 ~clock () in
        Hot_cache.put hot "fp-a" "a" ~bytes:100 ~tuning_seconds:5.;
        Clock.advance clock (2. *. Retain.default_half_life);
        Hot_cache.put hot "fp-b" "b" ~bytes:100 ~tuning_seconds:2.;
        (* a's decayed score 1.25/bytes < b's 2/bytes < c's 3/bytes *)
        Hot_cache.put hot "fp-c" "c" ~bytes:100 ~tuning_seconds:3.;
        Alcotest.(check (option string)) "stale entry evicted" None
          (Hot_cache.find hot "fp-a");
        Alcotest.(check bool) "fresh entries kept" true
          (Hot_cache.mem hot "fp-b" && Hot_cache.mem hot "fp-c"));
    Alcotest.test_case "find-refreshes-retention" `Quick (fun () ->
        let clock = Clock.virtual_ () in
        let hot = Hot_cache.create ~capacity:2 ~clock () in
        Hot_cache.put hot "fp-a" "a" ~bytes:100 ~tuning_seconds:2.;
        Hot_cache.put hot "fp-b" "b" ~bytes:100 ~tuning_seconds:2.;
        Clock.advance clock (2. *. Retain.default_half_life);
        ignore (Hot_cache.find hot "fp-a");
        Hot_cache.put hot "fp-c" "c" ~bytes:100 ~tuning_seconds:2.;
        Alcotest.(check (option string)) "untouched entry evicted" None
          (Hot_cache.find hot "fp-b");
        Alcotest.(check bool) "served entry survives" true
          (Hot_cache.mem hot "fp-a"));
    Alcotest.test_case "never-evicts-below-one-entry" `Quick (fun () ->
        let hot =
          Hot_cache.create ~max_bytes:10 ~capacity:1
            ~clock:(Clock.virtual_ ()) ()
        in
        Hot_cache.put hot "fp-a" "a" ~bytes:1000 ~tuning_seconds:1.;
        Alcotest.(check int) "oversized entry still held" 1
          (Hot_cache.size hot);
        Alcotest.(check (option string)) "and served" (Some "a")
          (Hot_cache.find hot "fp-a"));
  ]

(* --- quarantine TTL on the virtual clock ------------------------------ *)

(* store one entry, corrupt it, fsck: returns the quarantine file *)
let quarantined_entry dir =
  let accel = toy_accel () in
  let cache = Plan_cache.create ~dir () in
  store cache ~accel (op_a ());
  Log_records.garble dir;
  let r = Plan_cache.fsck ~dir () in
  Alcotest.(check int) "corruption quarantined" 1 r.Plan_cache.quarantined;
  match Log_records.quarantine_files dir with
  | [ f ] -> Filename.concat dir f
  | _ -> Alcotest.fail "expected exactly one quarantine file"

let quarantine_tests =
  [
    Alcotest.test_case "ttl-judged-against-injected-clock" `Quick (fun () ->
        let dir = Temp.dir "amos-eco-qttl" in
        let q = quarantined_entry dir in
        (* pin the file's mtime, then move only the *injected* clock:
           the same file is young or expired purely by what the clock
           says, with no sleeping and no dependence on wall time *)
        Unix.utimes q 1000. 1000.;
        let young = Clock.virtual_ ~now:2500. () in
        let r1 =
          Plan_cache.fsck ~clock:young ~quarantine_ttl:3000. ~dir ()
        in
        Alcotest.(check int) "age 1500 < ttl 3000: kept" 0
          r1.Plan_cache.quarantine_reclaimed;
        Alcotest.(check bool) "still on disk" true (Sys.file_exists q);
        let old_ = Clock.virtual_ ~now:5000. () in
        let r2 =
          Plan_cache.fsck ~clock:old_ ~quarantine_ttl:3000. ~dir ()
        in
        Alcotest.(check int) "age 4000 > ttl 3000: reclaimed" 1
          r2.Plan_cache.quarantine_reclaimed;
        Alcotest.(check bool) "gone" false (Sys.file_exists q));
  ]

let suites =
  [
    ("economy.retain", retain_tests);
    ("economy.accounting", accounting_tests);
    ("economy.eviction", eviction_tests);
    ("economy.hot", hot_tests);
    ("economy.quarantine", quarantine_tests);
  ]
