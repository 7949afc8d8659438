(* Deterministic fault injection over the plan service's disk layer.

   Every test drives [Plan_cache] through an [Fs_io.faulty] handle (the
   one-shot [Fault_plan] the network layer shares) that fails or
   "crashes the process" at one scheduled operation, then reopens the
   directory with a clean handle — exactly what a compiler restarting
   after a power cut does — and asserts the crash-consistency contract:
   the cache reopens cleanly, [fsck] repairs or quarantines (never
   serves) whatever the crash left behind, and a warm lookup either hits
   a validated plan or misses into a re-tune.  An injected [Fail] raises
   the [Unix.Unix_error] the OS would, so a real OS error (a directory
   where the marker file belongs) must degrade the same way. *)

open Amos
module Ops = Amos_workloads.Ops
module Rng = Amos_tensor.Rng
module Fs_io = Amos_service.Fs_io
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Par_tune = Amos_service.Par_tune
module Batch_compile = Amos_service.Batch_compile
module Badlist = Amos_service.Badlist

let toy_accel () =
  let base = Accelerator.v100 () in
  { base with Accelerator.intrinsics = [ Intrinsic.toy_mma_2x2x2 () ] }

let small_budget =
  { Fingerprint.population = 4; generations = 2; measure_top = 2; seed = 42 }

let an_op () = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 ()

let tune_value accel op =
  match Explore.tune_op ~population:4 ~generations:2 ~accel op with
  | Some result ->
      let c = result.Explore.best.Explore.candidate in
      Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule)
  | None -> Plan_cache.Scalar

(* the recovery contract every fault point must satisfy *)
let assert_recovers ~dir ~accel ~op ~value ~expect_live ~expect_hit () =
  (* 1. reopen with a clean handle: must not raise *)
  let reopened = Plan_cache.create ~dir () in
  ignore (Plan_cache.disk_size reopened);
  (* 2. fsck repairs; nothing corrupt may survive unquarantined *)
  let r = Plan_cache.fsck ~dir () in
  Alcotest.(check int) "no quarantined entries" 0 r.Plan_cache.quarantined;
  (* 3. after repair the cache is fully clean *)
  let r2 = Plan_cache.fsck ~dir () in
  Alcotest.(check bool) "second fsck clean" true (Plan_cache.fsck_clean r2);
  Alcotest.(check int) "live entries after repair" expect_live
    r2.Plan_cache.live;
  (* 4. a warm lookup either hits a validated plan or misses into a
     re-tune that stores successfully *)
  let warm = Plan_cache.create ~dir () in
  (match Plan_cache.lookup warm ~accel ~op ~budget:small_budget with
  | Some (Plan_cache.Spatial (m, sched)) ->
      Alcotest.(check bool) "warm hit expected" true expect_hit;
      Alcotest.(check bool) "hit validates" true (Schedule.validate m sched)
  | Some Plan_cache.Scalar ->
      Alcotest.(check bool) "warm hit expected" true expect_hit
  | None ->
      Alcotest.(check bool) "warm miss expected" false expect_hit;
      Plan_cache.store warm ~accel ~op ~budget:small_budget value;
      (match Plan_cache.lookup warm ~accel ~op ~budget:small_budget with
      | Some _ -> ()
      | None -> Alcotest.fail "re-tune after recovery must hit"));
  (* 5. and the re-tuned/recovered state checks out too *)
  let r3 = Plan_cache.fsck ~dir () in
  Alcotest.(check bool) "final fsck clean" true (Plan_cache.fsck_clean r3)

(* store one entry through a fault plan — after a clean earlier version
   when [seeded], then re-stamped [restamps] times with fresh tuning
   costs, so dead records pile up until the running handle compacts;
   returns whether a write visibly failed (an OS error or a simulated
   crash) *)
let store_under_faults ?(seeded = false) ?(restamps = 0) ~dir faults =
  let accel = toy_accel () in
  let op = an_op () in
  let value = tune_value accel op in
  if seeded then
    Plan_cache.store ~tuning_seconds:0.5 (Plan_cache.create ~dir ()) ~accel ~op
      ~budget:small_budget value;
  let fs = Fs_io.faulty faults in
  let cache = Plan_cache.create ~fs ~dir () in
  let failed =
    match
      Plan_cache.store cache ~accel ~op ~budget:small_budget value;
      for i = 1 to restamps do
        Plan_cache.store ~tuning_seconds:(float_of_int i) cache ~accel ~op
          ~budget:small_budget value
      done
    with
    | () -> false
    | exception (Unix.Unix_error _ | Fs_io.Crashed _) -> true
  in
  (accel, op, value, failed)

let fault_point_tests =
  let mk ?seeded ?restamps name faults ~must_fail ~expect_live ~expect_hit =
    Alcotest.test_case name `Quick (fun () ->
        let dir = Temp.dir ("amos-fault-" ^ name) in
        let accel, op, value, failed =
          store_under_faults ?seeded ?restamps ~dir faults
        in
        Alcotest.(check bool) "store outcome" must_fail failed;
        assert_recovers ~dir ~accel ~op ~value ~expect_live ~expect_hit ())
  in
  [
    (* 1: ENOSPC on the record append, the store's one write — nothing
       lands *)
    mk "enospc-on-entry-write"
      [ { Fs_io.op = Fs_io.Append; after = 0; mode = Fs_io.Fail Unix.ENOSPC } ]
      ~must_fail:true ~expect_live:0 ~expect_hit:false;
    (* 2: torn temp write of a running handle's compaction — the record
       had landed, the fragment is swept, the journal is whole *)
    mk "torn-entry-tmp-write" ~restamps:20
      [ { Fs_io.op = Fs_io.Write; after = 0; mode = Fs_io.Torn 10 } ]
      ~must_fail:true ~expect_live:1 ~expect_hit:true;
    (* 3: crash before that compaction's rename — the full temp file is
       left, the old journal still serves *)
    mk "crash-before-entry-rename" ~restamps:20
      [ { Fs_io.op = Fs_io.Rename; after = 0; mode = Fs_io.Crash_before } ]
      ~must_fail:true ~expect_live:1 ~expect_hit:true;
    (* 4: crash before the record append — nothing lands *)
    mk "crash-before-record-append"
      [ { Fs_io.op = Fs_io.Append; after = 0; mode = Fs_io.Crash_before } ]
      ~must_fail:true ~expect_live:0 ~expect_hit:false;
    (* 5: crash right after the record append — the record is the
       plan, so it serves *)
    mk "orphan-entry-no-journal-line"
      [ { Fs_io.op = Fs_io.Append; after = 0; mode = Fs_io.Crash_after } ]
      ~must_fail:true ~expect_live:1 ~expect_hit:true;
    (* 6: torn record append (crash mid-append) — replay skips the
       fragment and the next writer rewrites it away *)
    mk "torn-journal-append"
      [ { Fs_io.op = Fs_io.Append; after = 0; mode = Fs_io.Torn 3 } ]
      ~must_fail:true ~expect_live:0 ~expect_hit:false;
    (* 7: ENOSPC on an overwrite's record append — the earlier version
       keeps serving *)
    mk "enospc-on-journal-append" ~seeded:true
      [ { Fs_io.op = Fs_io.Append; after = 0; mode = Fs_io.Fail Unix.ENOSPC } ]
      ~must_fail:true ~expect_live:1 ~expect_hit:true;
    Alcotest.test_case "unreadable-entry-kept-by-fsck" `Quick (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let dir = Temp.dir "amos-fsck-read-eio" in
        Plan_cache.store (Plan_cache.create ~dir ()) ~accel ~op
          ~budget:small_budget (tune_value accel op);
        let before = Log_records.lines dir in
        (* EIO on the journal's read: a read error is no evidence of
           corruption, so fsck rewrites nothing *)
        let fs =
          Fs_io.faulty
            [ { Fs_io.op = Fs_io.Read; after = 0; mode = Fs_io.Fail Unix.EIO } ]
        in
        let r = Plan_cache.fsck ~fs ~dir () in
        Alcotest.(check int) "nothing quarantined" 0 r.Plan_cache.quarantined;
        Alcotest.(check int) "unreadable counted" 1 r.Plan_cache.unreadable;
        Alcotest.(check bool) "not clean while unchecked" false
          (Plan_cache.fsck_clean r);
        Alcotest.(check (list string)) "journal untouched" before
          (Log_records.lines dir);
        Alcotest.(check bool) "a fresh handle still hits" true
          (Plan_cache.lookup (Plan_cache.create ~dir ()) ~accel ~op
             ~budget:small_budget
          <> None);
        let r2 = Plan_cache.fsck ~dir () in
        Alcotest.(check bool) "fault-free fsck clean" true
          (Plan_cache.fsck_clean r2);
        Alcotest.(check int) "entry live" 1 r2.Plan_cache.live);
    Alcotest.test_case "lookup-read-error-keeps-the-record" `Quick (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let dir = Temp.dir "amos-lookup-read-eio" in
        Plan_cache.store (Plan_cache.create ~dir ()) ~accel ~op
          ~budget:small_budget (tune_value accel op);
        (* read 0 is the open's replay, read 1 the record's positioned
           read *)
        let fs =
          Fs_io.faulty
            [ { Fs_io.op = Fs_io.Read; after = 1; mode = Fs_io.Fail Unix.EIO } ]
        in
        let cache = Plan_cache.create ~fs ~dir () in
        Alcotest.(check bool) "the read error misses" true
          (Plan_cache.lookup cache ~accel ~op ~budget:small_budget = None);
        Alcotest.(check int) "no corrupt eviction" 0
          (Plan_cache.stats cache).Plan_cache.corrupt_evictions;
        Alcotest.(check int) "the record stays indexed" 1
          (Plan_cache.disk_size cache);
        Alcotest.(check bool) "the next read hits" true
          (Plan_cache.lookup cache ~accel ~op ~budget:small_budget <> None));
    Alcotest.test_case "failed-tmp-remove-not-counted" `Quick (fun () ->
        let dir = Temp.dir "amos-fsck-tmp-eio" in
        let tmp = Filename.concat dir "x.plan.tmp-1-1" in
        Out_channel.with_open_bin tmp (fun oc -> output_string oc "partial");
        let fs =
          Fs_io.faulty
            [ { Fs_io.op = Fs_io.Remove; after = 0; mode = Fs_io.Fail Unix.EIO } ]
        in
        let r = Plan_cache.fsck ~fs ~dir () in
        Alcotest.(check int) "failed remove not counted" 0
          r.Plan_cache.tmp_removed;
        Alcotest.(check bool) "tmp left for the next fsck" true
          (Sys.file_exists tmp);
        let r2 = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "healthy fsck removes it" 1
          r2.Plan_cache.tmp_removed;
        Alcotest.(check bool) "tmp gone" false (Sys.file_exists tmp));
  ]

let journal_tests =
  [
    Alcotest.test_case "create-makes-missing-parents" `Quick (fun () ->
        let dir =
          List.fold_left Filename.concat (Temp.dir "amos-mkdir")
            [ "a"; "b"; "c" ]
        in
        let cache = Plan_cache.create ~dir () in
        Plan_cache.store cache ~accel:(toy_accel ()) ~op:(an_op ())
          ~budget:small_budget Plan_cache.Scalar;
        (* reopening an existing tree is no error either *)
        ignore (Plan_cache.create ~dir ());
        Alcotest.(check int) "entry stored in the new tree" 1
          (Plan_cache.fsck ~dir ()).Plan_cache.live);
    Alcotest.test_case "add-without-entry-file-dropped" `Quick (fun () ->
        (* an add line that lost its entry (hand-edited, cut short) is no
           record: replay skips it and fsck's rewrite drops it *)
        let accel = toy_accel () in
        let op = an_op () in
        let value = tune_value accel op in
        let dir = Temp.dir "amos-fault-dangling-add" in
        let cache = Plan_cache.create ~dir () in
        Plan_cache.store cache ~accel ~op ~budget:small_budget value;
        let cut =
          List.map
            (fun line ->
              match Log_records.record line with
              | Some (fp, b, s, d, _) -> String.concat " " [ "add"; fp; b; s; d ]
              | None -> line)
            (Log_records.lines dir)
        in
        Out_channel.with_open_bin (Log_records.journal dir) (fun oc ->
            List.iter (fun l -> output_string oc (l ^ "\n")) cut);
        let r = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "nothing live" 0 r.Plan_cache.live;
        Alcotest.(check int) "nothing quarantined" 0 r.Plan_cache.quarantined;
        Alcotest.(check bool) "clean" true (Plan_cache.fsck_clean r);
        Alcotest.(check bool) "dropped by the rewrite" true
          (Log_records.lines dir = [ "amos-journal 2" ]);
        let warm = Plan_cache.create ~dir () in
        Alcotest.(check bool) "miss, never a phantom hit" true
          (Plan_cache.lookup warm ~accel ~op ~budget:small_budget = None));
    Alcotest.test_case "compaction-interrupted-before-rename" `Quick
      (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let value = tune_value accel op in
        let dir = Temp.dir "amos-fault-compaction" in
        let cache = Plan_cache.create ~dir () in
        Plan_cache.store cache ~accel ~op ~budget:small_budget value;
        (* bloat the journal with dead lines so reopening compacts *)
        let real = Fs_io.real () in
        for i = 0 to 39 do
          Fs_io.append_line real
            (Filename.concat dir "journal.txt")
            (Printf.sprintf "add deadbeef%04d" i)
        done;
        (* the compacting process dies between tmp write and rename *)
        (match
           Plan_cache.create
             ~fs:
               (Fs_io.faulty
                  [
                    {
                      Fs_io.op = Fs_io.Rename;
                      after = 0;
                      mode = Fs_io.Crash_before;
                    };
                  ])
             ~dir ()
         with
        | _ -> Alcotest.fail "expected simulated crash during compaction"
        | exception Fs_io.Crashed _ -> ());
        (* the old journal is intact: reopen compacts successfully *)
        let reopened = Plan_cache.create ~dir () in
        Alcotest.(check int) "one live entry" 1
          (Plan_cache.disk_size reopened);
        (match Plan_cache.lookup reopened ~accel ~op ~budget:small_budget with
        | Some _ -> ()
        | None -> Alcotest.fail "entry must survive interrupted compaction");
        let r = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "abandoned compaction tmp swept" 1
          r.Plan_cache.tmp_removed;
        Alcotest.(check bool) "clean" true (Plan_cache.fsck_clean r));
    Alcotest.test_case "crash-during-clear" `Quick (fun () ->
        (* clear is one rename: a crash before it leaves every plan, a
           crash after it none — never an error, never a wrong plan *)
        let accel = toy_accel () in
        let a = Ops.conv2d ~n:2 ~c:2 ~k:2 ~p:4 ~q:4 ~r:3 ~s:3 () in
        let b = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        let served mode =
          let dir = Temp.dir "amos-fault-clear" in
          let cache = Plan_cache.create ~dir () in
          Plan_cache.store cache ~accel ~op:a ~budget:small_budget
            (tune_value accel a);
          Plan_cache.store cache ~accel ~op:b ~budget:small_budget
            Plan_cache.Scalar;
          let faulty_cache =
            Plan_cache.create
              ~fs:(Fs_io.faulty [ { Fs_io.op = Fs_io.Rename; after = 0; mode } ])
              ~dir ()
          in
          (match Plan_cache.clear faulty_cache with
          | _ -> Alcotest.fail "expected simulated crash during clear"
          | exception Fs_io.Crashed _ -> ());
          let r = Plan_cache.fsck ~dir () in
          Alcotest.(check bool) "clean after the crash" true
            (Plan_cache.fsck_clean r);
          let warm = Plan_cache.create ~dir () in
          List.length
            (List.filter
               (fun op ->
                 Plan_cache.lookup warm ~accel ~op ~budget:small_budget <> None)
               [ a; b ])
        in
        Alcotest.(check int) "crash before the rename keeps both" 2
          (served Fs_io.Crash_before);
        Alcotest.(check int) "crash after the rename cleared both" 0
          (served Fs_io.Crash_after));
    Alcotest.test_case "torn-line-healed-for-next-writer" `Quick (fun () ->
        (* a torn trailing line must not corrupt the NEXT append: the
           reopening cache rewrites it away, so new records parse
           cleanly *)
        let accel = toy_accel () in
        let a = an_op () in
        let b = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        let dir = Temp.dir "amos-fault-heal" in
        let _, _, _, failed =
          store_under_faults ~dir
            [ { Fs_io.op = Fs_io.Append; after = 0; mode = Fs_io.Torn 3 } ]
        in
        Alcotest.(check bool) "append tore" true failed;
        let cache = Plan_cache.create ~dir () in
        Plan_cache.store cache ~accel ~op:b ~budget:small_budget
          Plan_cache.Scalar;
        let reopened = Plan_cache.create ~dir () in
        (match Plan_cache.lookup reopened ~accel ~op:b ~budget:small_budget with
        | Some Plan_cache.Scalar -> ()
        | _ -> Alcotest.fail "append after healed torn line must round-trip");
        Alcotest.(check bool) "the torn store never landed" true
          (Plan_cache.lookup reopened ~accel ~op:a ~budget:small_budget = None);
        Alcotest.(check bool) "clean" true
          (Plan_cache.fsck_clean (Plan_cache.fsck ~dir ())));
    Alcotest.test_case "torn-tail-rewritten-before-the-next-append" `Quick
      (fun () ->
        (* a fragment left by a dead writer on a running handle's
           journal: the next store rewrites it away under the lock, so
           the fragment never absorbs the record *)
        let accel = toy_accel () in
        let dir = Temp.dir "amos-fault-live-heal" in
        let cache = Plan_cache.create ~dir () in
        Plan_cache.store cache ~accel ~op:(an_op ()) ~budget:small_budget
          Plan_cache.Scalar;
        Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644
          (Log_records.journal dir) (fun oc -> output_string oc "add 0123");
        let b = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        Plan_cache.store cache ~accel ~op:b ~budget:small_budget
          Plan_cache.Scalar;
        Alcotest.(check bool) "no line holds the fragment" true
          (List.for_all
             (fun l -> not (String.length l >= 8 && String.sub l 0 8 = "add 0123"))
             (Log_records.lines dir));
        Alcotest.(check int) "both records parse" 2
          (List.length (Log_records.entries dir));
        Alcotest.(check bool) "a fresh handle serves the new record" true
          (Plan_cache.lookup (Plan_cache.create ~dir ()) ~accel ~op:b
             ~budget:small_budget
          = Some Plan_cache.Scalar));
  ]

(* --- multi-process behavior, simulated with two handles ------------- *)

let multiprocess_tests =
  [
    Alcotest.test_case "second-handle-sees-first-handles-store" `Quick
      (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let dir = Temp.dir "amos-mp-refresh" in
        let writer = Plan_cache.create ~dir () in
        let reader = Plan_cache.create ~dir () in
        Alcotest.(check bool) "reader cold-misses" true
          (Plan_cache.lookup reader ~accel ~op ~budget:small_budget = None);
        Plan_cache.store writer ~accel ~op ~budget:small_budget
          (tune_value accel op);
        (* the reader's next miss reads past its last offset and hits *)
        (match Plan_cache.lookup reader ~accel ~op ~budget:small_budget with
        | Some _ -> ()
        | None -> Alcotest.fail "reader must observe writer's store"));
    Alcotest.test_case "concurrent-same-fingerprint-stores" `Quick (fun () ->
        (* two writers storing the same fingerprint through their own
           handles: appends serialize, and both succeed and leave a
           valid, servable entry *)
        let accel = toy_accel () in
        let op = an_op () in
        let value = tune_value accel op in
        let dir = Temp.dir "amos-mp-race" in
        let store_repeatedly () =
          let cache = Plan_cache.create ~dir () in
          for _ = 1 to 20 do
            Plan_cache.store cache ~accel ~op ~budget:small_budget value
          done
        in
        let d1 = Domain.spawn store_repeatedly in
        let d2 = Domain.spawn store_repeatedly in
        Domain.join d1;
        Domain.join d2;
        let r = Plan_cache.fsck ~dir () in
        Alcotest.(check bool) "fsck clean after race" true
          (Plan_cache.fsck_clean r);
        Alcotest.(check int) "exactly one live entry" 1 r.Plan_cache.live;
        let warm = Plan_cache.create ~dir () in
        match Plan_cache.lookup warm ~accel ~op ~budget:small_budget with
        | Some (Plan_cache.Spatial (m, sched)) ->
            Alcotest.(check bool) "entry validates" true
              (Schedule.validate m sched)
        | Some Plan_cache.Scalar -> Alcotest.fail "expected spatial"
        | None -> Alcotest.fail "expected hit after concurrent stores");
    Alcotest.test_case "compacting-handles-never-lose-a-store" `Quick
      (fun () ->
        (* the daemon's shape: a worker stores through the shared handle
           while each network compile opens its own handle on the same
           directory, and a bloated journal makes those opens (and the
           re-stamps between them) compact.  No store may be lost to a
           rewrite *)
        let accel = toy_accel () in
        let dir = Temp.dir "amos-mp-compact" in
        let n = 60 in
        let op i = Ops.gemm ~m:(i + 1) ~n:4 ~k:4 () in
        let churn = Ops.gemm ~m:4 ~n:8 ~k:8 () in
        let writing = Atomic.make true and opens = Atomic.make 0 in
        let compactor =
          Domain.spawn (fun () ->
              while Atomic.get writing do
                let c = Plan_cache.create ~dir () in
                Atomic.incr opens;
                (* each re-stamp leaves a dead record behind *)
                for k = 1 to 4 do
                  Plan_cache.store
                    ~tuning_seconds:(float_of_int ((4 * Atomic.get opens) + k))
                    c ~accel ~op:churn ~budget:small_budget Plan_cache.Scalar
                done
              done)
        in
        while Atomic.get opens = 0 do
          Domain.cpu_relax ()
        done;
        let writer = Plan_cache.create ~dir () in
        for i = 0 to n - 1 do
          Plan_cache.store writer ~accel ~op:(op i) ~budget:small_budget
            Plan_cache.Scalar;
          Unix.sleepf 0.001
        done;
        Atomic.set writing false;
        Domain.join compactor;
        let fresh = Plan_cache.create ~dir () in
        for i = 0 to n - 1 do
          if Plan_cache.lookup fresh ~accel ~op:(op i) ~budget:small_budget
             <> Some Plan_cache.Scalar
          then Alcotest.failf "store %d lost" i
        done;
        Alcotest.(check bool) "clean" true
          (Plan_cache.fsck_clean (Plan_cache.fsck ~dir ())));
    Alcotest.test_case "stale-offset-refreshes-not-evicts" `Quick (fun () ->
        (* another handle's compaction moves every record: a lookup at
           the old offset replays the journal and hits, with no corrupt
           eviction *)
        let accel = toy_accel () in
        let dir = Temp.dir "amos-mp-stale" in
        let op i = Ops.gemm ~m:(i + 1) ~n:4 ~k:4 () in
        let writer = Plan_cache.create ~dir () in
        for i = 0 to 3 do
          Plan_cache.store writer ~accel ~op:(op i) ~budget:small_budget
            Plan_cache.Scalar
        done;
        let reader = Plan_cache.create ~mem_capacity:1 ~dir () in
        (* dead records ahead of the live ones, then a compaction *)
        for i = 1 to 40 do
          Plan_cache.store ~tuning_seconds:(float_of_int i) writer ~accel
            ~op:(op 0) ~budget:small_budget Plan_cache.Scalar
        done;
        for i = 1 to 3 do
          Alcotest.(check bool) "hit at a moved offset" true
            (Plan_cache.lookup reader ~accel ~op:(op i) ~budget:small_budget
            = Some Plan_cache.Scalar)
        done;
        Alcotest.(check int) "no corrupt eviction" 0
          (Plan_cache.stats reader).Plan_cache.corrupt_evictions);
  ]

(* --- graceful degradation ------------------------------------------- *)

let boom = Failure "injected evaluation failure"

let degradation_tests =
  [
    Alcotest.test_case "parallel-map-captures-per-task-failures" `Quick
      (fun () ->
        let arr = Array.init 8 Fun.id in
        let results =
          Par_tune.parallel_map_result ~jobs:4
            (fun i -> if i = 3 then raise boom else i * 10)
            arr
        in
        Array.iteri
          (fun i r ->
            match (i, r) with
            | 3, Error (Failure _) -> ()
            | 3, _ -> Alcotest.fail "task 3 must report its failure"
            | i, Ok v -> Alcotest.(check int) "sibling result" (i * 10) v
            | _, Error _ -> Alcotest.fail "sibling must not fail")
          results);
    Alcotest.test_case "parallel-map-retries-transient-failure" `Quick
      (fun () ->
        let attempts = Array.init 4 (fun _ -> Atomic.make 0) in
        let results =
          Par_tune.parallel_map_result ~jobs:2
            (fun i ->
              (* every task fails its first attempt, succeeds its second *)
              if Atomic.fetch_and_add attempts.(i) 1 = 0 then raise boom
              else i)
            (Array.init 4 Fun.id)
        in
        Array.iteri
          (fun i r ->
            match r with
            | Ok v -> Alcotest.(check int) "retried into success" i v
            | Error _ -> Alcotest.fail "one retry must absorb the failure")
          results);
    Alcotest.test_case "one-raising-mapping-keeps-sibling-plans" `Quick
      (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let mappings =
          List.concat_map
            (fun intr ->
              List.map Mapping.make (Mapping_gen.generate_op op intr))
            accel.Accelerator.intrinsics
        in
        Alcotest.(check bool) "needs several mappings" true
          (List.length mappings >= 2);
        let victim = Mapping.describe (List.hd mappings) in
        let result =
          Par_tune.tune_with ~jobs:4
            ~screen:(fun m -> Explore.screen_mapping ~accel m)
            ~search:(fun m ~score:_ ~best_score:_ ->
              if Mapping.describe m = victim then raise boom
              else
                Explore.search_mapping ~population:4 ~generations:2
                  ~measure_top:2 ~accel m)
            ~mappings ()
        in
        (* the victim is reported, the siblings' plans still competed *)
        Alcotest.(check int) "one failure reported" 1
          (List.length result.Explore.failures);
        Alcotest.(check string) "failure names the mapping" victim
          (fst (List.hd result.Explore.failures));
        Alcotest.(check bool) "a best plan still exists" true
          (result.Explore.best.Explore.measured < infinity);
        Alcotest.(check bool) "sibling history survives" true
          (List.length result.Explore.history > 0));
    Alcotest.test_case "batch-compile-degrades-failing-stage" `Quick
      (fun () ->
        let accel = toy_accel () in
        let g = Graph.mini_cnn ~channels:2 () in
        (* measure_top = 0 makes every search return zero plans, so
           tuning raises for every unique stage: the compile must
           complete on scalar fallbacks, not abort *)
        let broken = { small_budget with Fingerprint.measure_top = 0 } in
        let cache = Plan_cache.create () in
        let t = Batch_compile.compile ~jobs:1 ~budget:broken ~cache accel g in
        let r = t.Batch_compile.report in
        Alcotest.(check bool) "degraded stages reported" true
          (r.Batch_compile.degraded_stages > 0);
        Alcotest.(check bool) "some stage marked Degraded" true
          (List.exists
             (fun sp -> sp.Batch_compile.source = Batch_compile.Degraded)
             t.Batch_compile.plans);
        List.iter
          (fun sp ->
            match sp.Batch_compile.value with
            | Plan_cache.Scalar -> ()
            | Plan_cache.Spatial _ ->
                Alcotest.fail "degraded run must use scalar plans")
          t.Batch_compile.plans;
        (* the network still runs end-to-end on the fallback plans *)
        let rng = Rng.create 5 in
        let input = Amos_tensor.Nd.random rng (Graph.input_shape g) in
        let weights = Graph.random_weights rng g in
        let out = Batch_compile.run t ~input ~weights in
        let expected = Graph.run_reference g ~input ~weights in
        Alcotest.(check bool) "degraded output matches reference" true
          (Amos_tensor.Nd.approx_equal ~tol:1e-3 expected out));
    Alcotest.test_case "degraded-network-compile-completes" `Quick (fun () ->
        let accel = toy_accel () in
        let broken = { small_budget with Fingerprint.measure_top = 0 } in
        let cache = Plan_cache.create () in
        let module Networks = Amos_workloads.Networks in
        let net =
          {
            Networks.name = "tiny";
            batch = 1;
            layers =
              [
                (Networks.Tensor_op (an_op ()), 1);
                (Networks.Elementwise { name = "relu"; elems = 128 }, 1);
              ];
          }
        in
        let report, service =
          Batch_compile.compile_network ~jobs:1 ~budget:broken ~cache accel
            net
        in
        Alcotest.(check bool) "stages degraded, compile completed" true
          (service.Batch_compile.degraded_stages > 0);
        Alcotest.(check bool) "network latency still reported" true
          (report.Compiler.network_seconds > 0.);
        (* degraded fallbacks are never cached: a healthy budget later
           must not be poisoned (different fingerprint anyway), and the
           same broken budget re-degrades rather than hitting *)
        Alcotest.(check int) "nothing stored" 0 (Plan_cache.mem_size cache));
    Alcotest.test_case "store-failure-does-not-abort-compile" `Quick
      (fun () ->
        let accel = toy_accel () in
        let g = Graph.mini_cnn ~channels:2 () in
        let dir = Temp.dir "amos-store-fail" in
        (* every record append fails: tuning succeeds, persistence keeps
           failing, compile must still complete with tuned plans *)
        let faults =
          List.init 64 (fun i ->
              { Fs_io.op = Fs_io.Append; after = i; mode = Fs_io.Fail Unix.EIO })
        in
        let cache = Plan_cache.create ~fs:(Fs_io.faulty faults) ~dir () in
        let t =
          Batch_compile.compile ~jobs:1 ~budget:small_budget ~cache accel g
        in
        let r = t.Batch_compile.report in
        Alcotest.(check bool) "tuned despite store failures" true
          (r.Batch_compile.evaluations > 0);
        Alcotest.(check int) "no stage degraded (plans are good)" 0
          r.Batch_compile.degraded_stages;
        let fsck = Plan_cache.fsck ~dir () in
        Alcotest.(check bool) "directory consistent" true
          (Plan_cache.fsck_clean fsck));
  ]

(* --- persistent known-bad markers -------------------------------------- *)

let known_bad_tests =
  [
    Alcotest.test_case "marker-persists-and-short-circuits-retune" `Quick
      (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let dir = Temp.dir "amos-known-bad" in
        let broken = { small_budget with Fingerprint.measure_top = 0 } in
        (* cold run 1: tuning fails, the stage degrades, and a marker is
           persisted next to the cache *)
        let cache1 = Plan_cache.create ~dir () in
        let v1, s1 =
          Batch_compile.tune_op ~jobs:1 ~budget:broken ~cache:cache1 accel op
        in
        Alcotest.(check bool) "first cold run degrades" true
          (s1 = Batch_compile.Degraded);
        Alcotest.(check bool) "degraded serves scalar" true
          (v1 = Plan_cache.Scalar);
        Alcotest.(check int) "one marker on disk" 1
          (List.length (Badlist.list ~dir ()));
        (* fsck reports the marker without going unclean *)
        let r = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "fsck counts the marker" 1 r.Plan_cache.known_bad;
        Alcotest.(check bool) "markers never dirty fsck" true
          (Plan_cache.fsck_clean r);
        (* cold run 2 (fresh handle, fresh memo): the marker is honoured —
           scalar served, no tuning attempt re-paid *)
        let cache2 = Plan_cache.create ~dir () in
        let v2, s2 =
          Batch_compile.tune_op ~jobs:1 ~budget:broken ~cache:cache2 accel op
        in
        Alcotest.(check bool) "second cold run short-circuits" true
          (s2 = Batch_compile.Known_bad);
        Alcotest.(check bool) "still scalar" true (v2 = Plan_cache.Scalar);
        (* clearing the markers re-enables tuning attempts *)
        Alcotest.(check int) "clear reports the marker" 1
          (Badlist.clear ~dir ());
        let cache3 = Plan_cache.create ~dir () in
        let _, s3 =
          Batch_compile.tune_op ~jobs:1 ~budget:broken ~cache:cache3 accel op
        in
        Alcotest.(check bool) "after clear, tuning is re-attempted" true
          (s3 = Batch_compile.Degraded));
    Alcotest.test_case "marker-write-failure-is-survivable" `Quick (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let dir = Temp.dir "amos-known-bad-fault" in
        let broken = { small_budget with Fingerprint.measure_top = 0 } in
        (* every append fails: the marker write is injected away, but the
           compile's own degradation handling must be untouched *)
        let faults =
          List.init 16 (fun i ->
              { Fs_io.op = Fs_io.Append; after = i; mode = Fs_io.Fail Unix.EIO })
        in
        let cache = Plan_cache.create ~fs:(Fs_io.faulty faults) ~dir () in
        let _, s1 =
          Batch_compile.tune_op ~jobs:1 ~budget:broken ~cache accel op
        in
        Alcotest.(check bool) "run still degrades gracefully" true
          (s1 = Batch_compile.Degraded);
        Alcotest.(check int) "no marker survived the fault" 0
          (List.length (Badlist.list ~dir ()));
        (* without a marker the next cold run re-attempts (and re-fails)
           tuning rather than trusting a phantom record *)
        let cache2 = Plan_cache.create ~dir () in
        let _, s2 =
          Batch_compile.tune_op ~jobs:1 ~budget:broken ~cache:cache2 accel op
        in
        Alcotest.(check bool) "re-attempted, not Known_bad" true
          (s2 = Batch_compile.Degraded));
    Alcotest.test_case "real-marker-write-error-degrades" `Quick (fun () ->
        (* a directory where the marker file belongs: the OS, not a
           fault plan, refuses the append (EISDIR), and the run must
           degrade exactly as it does under an injected error *)
        let accel = toy_accel () in
        let dir = Temp.dir "amos-known-bad-eisdir" in
        Sys.mkdir (Filename.concat dir Badlist.file_name) 0o755;
        let broken = { small_budget with Fingerprint.measure_top = 0 } in
        let cache = Plan_cache.create ~dir () in
        let _, s =
          Batch_compile.tune_op ~jobs:1 ~budget:broken ~cache accel (an_op ())
        in
        Alcotest.(check bool) "tune degrades" true (s = Batch_compile.Degraded);
        let net =
          {
            Amos_workloads.Networks.name = "tiny";
            batch = 1;
            layers = [ (Amos_workloads.Networks.Tensor_op (an_op ()), 1) ];
          }
        in
        let _, service =
          Batch_compile.compile_network ~jobs:1 ~budget:broken ~cache accel
            net
        in
        Alcotest.(check int) "network compile completes degraded" 1
          service.Batch_compile.degraded_stages);
    Alcotest.test_case "quarantine-rename-failure-never-serves" `Quick
      (fun () ->
        let accel = toy_accel () in
        let op = an_op () in
        let dir = Temp.dir "amos-fsck-rename-eio" in
        let cache = Plan_cache.create ~dir () in
        Plan_cache.store cache ~accel ~op ~budget:small_budget
          Plan_cache.Scalar;
        Log_records.garble dir;
        let before = Log_records.lines dir in
        (* EIO on the rename of fsck's rewrite, after the corrupt entry
           was set aside: fsck completes, reports it, and the journal
           stands as it was *)
        let fs =
          Fs_io.faulty
            [
              { Fs_io.op = Fs_io.Rename; after = 0; mode = Fs_io.Fail Unix.EIO };
            ]
        in
        let r = Plan_cache.fsck ~fs ~dir () in
        Alcotest.(check int) "corruption counted" 1 r.Plan_cache.quarantined;
        Alcotest.(check int) "nothing live" 0 r.Plan_cache.live;
        Alcotest.(check bool) "not clean" false (Plan_cache.fsck_clean r);
        Alcotest.(check (list string)) "journal as it was" before
          (Log_records.lines dir);
        (* a fault-free fsck sets it aside and rewrites *)
        let r2 = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "healthy fsck quarantines" 1
          r2.Plan_cache.quarantined;
        Alcotest.(check (list string)) "quarantine file present"
          [ Fingerprint.key ~accel ~op ~budget:small_budget ^ ".plan.quarantined" ]
          (Log_records.quarantine_files dir);
        Alcotest.(check bool) "corrupt entry never served" true
          (Plan_cache.lookup (Plan_cache.create ~dir ()) ~accel ~op
             ~budget:small_budget
          = None);
        Alcotest.(check bool) "clean afterwards" true
          (Plan_cache.fsck_clean (Plan_cache.fsck ~dir ())));
    Alcotest.test_case "quarantine-write-failure-rewrites-nothing" `Quick
      (fun () ->
        (* fsck never deletes plan content: when the corrupt entry cannot
           be set aside, the record stays in the journal *)
        let accel = toy_accel () in
        let op = an_op () in
        let dir = Temp.dir "amos-fsck-qwrite-eio" in
        Plan_cache.store (Plan_cache.create ~dir ()) ~accel ~op
          ~budget:small_budget Plan_cache.Scalar;
        Log_records.garble dir;
        let before = Log_records.lines dir in
        let fs =
          Fs_io.faulty
            [ { Fs_io.op = Fs_io.Write; after = 0; mode = Fs_io.Fail Unix.EIO } ]
        in
        let r = Plan_cache.fsck ~fs ~dir () in
        Alcotest.(check bool) "not clean" false (Plan_cache.fsck_clean r);
        Alcotest.(check (list string)) "nothing rewritten" before
          (Log_records.lines dir);
        Alcotest.(check (list string)) "no quarantine file" []
          (Log_records.quarantine_files dir);
        let r2 = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "a healthy fsck sets it aside" 1
          r2.Plan_cache.quarantined;
        Alcotest.(check string) "the entry is preserved"
          "garbage: not a plan header\n"
          (In_channel.with_open_bin
             (Filename.concat dir (List.hd (Log_records.quarantine_files dir)))
             In_channel.input_all));
  ]

(* --- cache-economy eviction under faults ------------------------------- *)

module Clock = Amos_service.Clock

(* the budget-eviction scenario every fault below interrupts: a + b fit
   the 8 tuning-second budget, storing c (5 + 1 + 4 = 10) forces the two
   cheapest entries out *)
let eco_a () = Ops.gemm ~m:4 ~n:4 ~k:4 ()
let eco_b () = Ops.gemm ~m:8 ~n:8 ~k:8 ()
let eco_c () = Ops.gemm ~m:6 ~n:6 ~k:6 ()

let eco_seed dir =
  let accel = toy_accel () in
  let cache =
    Plan_cache.create ~max_tuning_seconds:8. ~clock:(Clock.virtual_ ()) ~dir ()
  in
  Plan_cache.store ~tuning_seconds:5. cache ~accel ~op:(eco_a ())
    ~budget:small_budget Plan_cache.Scalar;
  Plan_cache.store ~tuning_seconds:1. cache ~accel ~op:(eco_b ())
    ~budget:small_budget Plan_cache.Scalar;
  accel

(* after any interrupted eviction: fsck must rebuild the byte
   accounting from the records' entries, and go clean *)
let assert_eviction_recovers ?(expect_torn = false) ~dir ~live () =
  let r = Plan_cache.fsck ~dir () in
  if expect_torn then
    Alcotest.(check bool) "torn tail repaired" true r.Plan_cache.torn_repaired;
  Alcotest.(check int) "live entries" live r.Plan_cache.live;
  Alcotest.(check int) "nothing quarantined" 0 r.Plan_cache.quarantined;
  Alcotest.(check int) "byte accounting rebuilt from the records"
    (Log_records.entry_bytes dir) r.Plan_cache.bytes;
  let r2 = Plan_cache.fsck ~dir () in
  Alcotest.(check bool) "clean after repair" true (Plan_cache.fsck_clean r2);
  let reopened = Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir () in
  Alcotest.(check int) "reopened handle agrees with disk"
    (Log_records.entry_bytes dir)
    (Plan_cache.disk_bytes reopened)

let economy_fault_tests =
  let evicting_store ~dir ~accel faults =
    let fs = Fs_io.faulty faults in
    let cache =
      Plan_cache.create ~fs ~max_tuning_seconds:8. ~clock:(Clock.virtual_ ())
        ~dir ()
    in
    match
      Plan_cache.store ~tuning_seconds:4. cache ~accel ~op:(eco_c ())
        ~budget:small_budget Plan_cache.Scalar
    with
    | () -> false
    | exception (Unix.Unix_error _ | Fs_io.Crashed _) -> true
  in
  (* append 0 is the store's record, append 1 the first victim's del *)
  [
    Alcotest.test_case "crash-after-victim-unlink" `Quick (fun () ->
        (* the first victim's del landed, then the process died before
           evicting the second *)
        let dir = Temp.dir "amos-eco-fault-unlink" in
        let accel = eco_seed dir in
        let crashed =
          evicting_store ~dir ~accel
            [ { Fs_io.op = Fs_io.Append; after = 1; mode = Fs_io.Crash_after } ]
        in
        Alcotest.(check bool) "eviction crashed" true crashed;
        assert_eviction_recovers ~dir ~live:2 ());
    Alcotest.test_case "crash-before-eviction-journal-del" `Quick (fun () ->
        (* the record landed, the del line never did: every entry
           survives the crash, over budget until the next trim *)
        let dir = Temp.dir "amos-eco-fault-del" in
        let accel = eco_seed dir in
        let crashed =
          evicting_store ~dir ~accel
            [
              { Fs_io.op = Fs_io.Append; after = 1; mode = Fs_io.Crash_before };
            ]
        in
        Alcotest.(check bool) "eviction crashed" true crashed;
        assert_eviction_recovers ~dir ~live:3 ());
    Alcotest.test_case "torn-eviction-journal-del" `Quick (fun () ->
        (* crash mid-append leaves a fragment of the del line; replay
           must skip it and fsck must repair the tail *)
        let dir = Temp.dir "amos-eco-fault-torn-del" in
        let accel = eco_seed dir in
        let crashed =
          evicting_store ~dir ~accel
            [ { Fs_io.op = Fs_io.Append; after = 1; mode = Fs_io.Torn 2 } ]
        in
        Alcotest.(check bool) "eviction crashed" true crashed;
        assert_eviction_recovers ~expect_torn:true ~dir ~live:3 ());
    Alcotest.test_case "eviction-unlink-failure-is-survivable" `Quick
      (fun () ->
        (* EIO on every victim's del: the store must still succeed, and
           the victims' records outlive their failed dels — accounted,
           never lost, and re-trimmed by a budgeted handle *)
        let dir = Temp.dir "amos-eco-fault-eio" in
        let accel = eco_seed dir in
        let failed =
          evicting_store ~dir ~accel
            (List.init 4 (fun i ->
                 {
                   Fs_io.op = Fs_io.Append;
                   after = i + 1;
                   mode = Fs_io.Fail Unix.EIO;
                 }))
        in
        Alcotest.(check bool) "store survives the del failure" false failed;
        let r = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "stranded victims still live" 3 r.Plan_cache.live;
        Alcotest.(check int) "accounting covers them"
          (Log_records.entry_bytes dir) r.Plan_cache.bytes;
        Alcotest.(check bool) "clean" true (Plan_cache.fsck_clean r);
        (* a budgeted reopen re-trims the overflow *)
        let reopened =
          Plan_cache.create ~max_tuning_seconds:8. ~clock:(Clock.virtual_ ())
            ~dir ()
        in
        ignore (Plan_cache.trim reopened);
        Alcotest.(check bool) "back under budget" true
          (Plan_cache.disk_tuning_seconds reopened <= 8.));
    Alcotest.test_case "failed-overwrite-keeps-accounting" `Quick (fun () ->
        (* EIO on the overwrite's record append (append 0 is the first
           store's): the index keeps the accounting of the record that
           is still in the journal, so the retry on the same handle
           re-stamps it *)
        let dir = Temp.dir "amos-eco-fault-overwrite" in
        let accel = toy_accel () in
        let fs =
          Fs_io.faulty
            [ { Fs_io.op = Fs_io.Append; after = 1; mode = Fs_io.Fail Unix.EIO } ]
        in
        let cache = Plan_cache.create ~fs ~clock:(Clock.virtual_ ()) ~dir () in
        let store ts =
          Plan_cache.store ~tuning_seconds:ts cache ~accel ~op:(eco_a ())
            ~budget:small_budget Plan_cache.Scalar
        in
        let cost cache =
          match
            Plan_cache.info cache
              ~fingerprint:
                (Fingerprint.key ~accel ~op:(eco_a ()) ~budget:small_budget)
          with
          | Some it -> it.Amos_service.Retain.tuning_seconds
          | None -> Alcotest.fail "entry must stay accounted"
        in
        store 1.;
        (match store 2. with
        | () -> Alcotest.fail "the overwrite must fail"
        | exception Unix.Unix_error _ -> ());
        Alcotest.(check (float 0.)) "accounting of the record on disk" 1.
          (cost cache);
        store 2.;
        Alcotest.(check (float 0.)) "retry accounted" 2. (cost cache);
        Alcotest.(check (float 0.)) "journal follows the entry" 2.
          (cost (Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir ())));
    Alcotest.test_case "torn-store-accounting-rebuilt" `Quick (fun () ->
        (* crash mid-record-append: nothing lands, and fsck's rebuilt
           byte accounting reflects only the entries that exist *)
        let dir = Temp.dir "amos-eco-fault-torn-store" in
        let accel = eco_seed dir in
        let crashed =
          evicting_store ~dir ~accel
            [ { Fs_io.op = Fs_io.Append; after = 0; mode = Fs_io.Torn 10 } ]
        in
        Alcotest.(check bool) "store crashed" true crashed;
        assert_eviction_recovers ~expect_torn:true ~dir ~live:2 ());
  ]

(* --- quarantine TTL reclaim -------------------------------------------- *)

(* store one entry, then corrupt its record so fsck quarantines it;
   returns the quarantine file's path *)
let quarantined_entry dir =
  let accel = toy_accel () in
  let op = an_op () in
  let cache = Plan_cache.create ~dir () in
  Plan_cache.store cache ~accel ~op ~budget:small_budget
    (tune_value accel op);
  Log_records.garble dir;
  let r = Plan_cache.fsck ~dir () in
  Alcotest.(check int) "corruption quarantined" 1 r.Plan_cache.quarantined;
  match Log_records.quarantine_files dir with
  | [ f ] -> Filename.concat dir f
  | _ -> Alcotest.fail "expected exactly one quarantine file"

let quarantine_ttl_tests =
  [
    Alcotest.test_case "ttl-reclaims-only-aged-files" `Quick (fun () ->
        let dir = Temp.dir "amos-qttl" in
        let q = quarantined_entry dir in
        (* a young quarantine file survives a TTL fsck *)
        let r1 = Plan_cache.fsck ~quarantine_ttl:3600. ~dir () in
        Alcotest.(check int) "young file kept" 0
          r1.Plan_cache.quarantine_reclaimed;
        Alcotest.(check bool) "still on disk" true (Sys.file_exists q);
        (* age the file past any plausible TTL *)
        Unix.utimes q 1000. 1000.;
        (* without a TTL, fsck keeps quarantine forever (the default) *)
        let r2 = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "no ttl, no reclaim" 0
          r2.Plan_cache.quarantine_reclaimed;
        Alcotest.(check bool) "kept without ttl" true (Sys.file_exists q);
        (* with a TTL, the aged file is reclaimed *)
        let r3 = Plan_cache.fsck ~quarantine_ttl:3600. ~dir () in
        Alcotest.(check int) "aged file reclaimed" 1
          r3.Plan_cache.quarantine_reclaimed;
        Alcotest.(check bool) "gone" false (Sys.file_exists q);
        Alcotest.(check bool) "directory clean afterwards" true
          (Plan_cache.fsck_clean (Plan_cache.fsck ~dir ())));
    Alcotest.test_case "ttl-reclaim-survives-remove-fault" `Quick (fun () ->
        let dir = Temp.dir "amos-qttl-fault" in
        let q = quarantined_entry dir in
        Unix.utimes q 1000. 1000.;
        (* the reclaim's unlink fails: fsck must survive, not count the
           file as reclaimed, and leave it for the next run *)
        let fs =
          Fs_io.faulty
            [ { Fs_io.op = Fs_io.Remove; after = 0; mode = Fs_io.Fail Unix.EIO } ]
        in
        let r = Plan_cache.fsck ~fs ~quarantine_ttl:3600. ~dir () in
        Alcotest.(check int) "failed remove not counted" 0
          r.Plan_cache.quarantine_reclaimed;
        Alcotest.(check bool) "file left for the next fsck" true
          (Sys.file_exists q);
        Alcotest.(check bool) "fsck itself completes clean" true
          (Plan_cache.fsck_clean r);
        (* a healthy retry reclaims it *)
        let r2 = Plan_cache.fsck ~quarantine_ttl:3600. ~dir () in
        Alcotest.(check int) "healthy retry reclaims" 1
          r2.Plan_cache.quarantine_reclaimed;
        Alcotest.(check bool) "reclaimed on retry" false (Sys.file_exists q));
  ]

(* --- importing a version-1 directory ----------------------------------- *)

(* the fixtures under [fixtures/] were written by the per-entry-file
   store: [v1-stamped] as it left them plus a quarantine file and a
   stray temp file, [v1-unstamped] with the stamp stripped, one bare
   [add <fp>] line and that entry's [opkey]/[tuned_in] header lines
   removed *)
let fixture_ops () =
  [
    ("882eac2d24b372a43537809fdd423425", an_op ());
    ("97b460046fe9c3d10021871dc259fd18", Ops.gemm ~m:4 ~n:4 ~k:4 ());
    ("06704d339ff596c91929d9b6060dcb7d", Ops.gemm ~m:8 ~n:8 ~k:8 ());
    ("fcd04d8a1251960db94ca0e3cc0aaf29", Ops.gemm ~m:6 ~n:6 ~k:6 ());
  ]

let render = function
  | None -> "miss"
  | Some Plan_cache.Scalar -> "scalar"
  | Some (Plan_cache.Spatial (m, sched)) -> Plan_io.save m sched

(* what the per-entry-file store serves and accounts for a fixture *)
let oracle_view fixture =
  let old =
    Plan_cache_oracle.create ~clock:(Clock.virtual_ ())
      ~dir:(Log_records.copy_dir fixture) ()
  in
  let accel = toy_accel () in
  ( List.map
      (fun (fp, op) ->
        ( render (Plan_cache_oracle.lookup old ~accel ~op ~budget:small_budget),
          Plan_cache_oracle.info old ~fingerprint:fp ))
      (fixture_ops ()),
    Plan_cache_oracle.disk_bytes old )

let log_view dir =
  let cache = Plan_cache.create ~clock:(Clock.virtual_ ()) ~dir () in
  let accel = toy_accel () in
  ( List.map
      (fun (fp, op) ->
        let info = Plan_cache.info cache ~fingerprint:fp in
        ( render (Plan_cache.lookup cache ~accel ~op ~budget:small_budget),
          info ))
      (fixture_ops ()),
    Plan_cache.disk_bytes cache )

(* [dune runtest] runs in the build's test directory; [dune exec] from
   the repository root *)
let fixture name =
  let here = Filename.concat "fixtures" name in
  if Sys.file_exists here then here else Filename.concat "test" here

let fixtures = [ fixture "v1-stamped"; fixture "v1-unstamped" ]

let import_tests =
  [
    Alcotest.test_case "v1-fixtures-import-once-and-serve-alike" `Quick
      (fun () ->
        let accel = toy_accel () in
        List.iter
          (fun (fp, op) ->
            Alcotest.(check string) "fixture fingerprint" fp
              (Fingerprint.key ~accel ~op ~budget:small_budget))
          (fixture_ops ());
        List.iter
          (fun fixture ->
            let dir = Log_records.copy_dir fixture in
            let (served, bytes) = log_view dir in
            let (want, want_bytes) = oracle_view fixture in
            Alcotest.(check bool) (fixture ^ ": every plan served") true
              (List.for_all (fun (r, _) -> r <> "miss") served);
            Alcotest.(check bool) (fixture ^ ": bit-identical plans") true
              (List.map fst served = List.map fst want);
            Alcotest.(check bool) (fixture ^ ": the old accounting") true
              (List.map snd served = List.map snd want);
            Alcotest.(check int) (fixture ^ ": accounted bytes") want_bytes
              bytes;
            Alcotest.(check (list string)) (fixture ^ ": no entry files") []
              (Log_records.plan_files dir);
            Alcotest.(check string) (fixture ^ ": stamped") "amos-journal 2"
              (List.hd (Log_records.lines dir));
            (* imported once: a second open moves nothing *)
            let fs = Fs_io.faulty [] in
            ignore (Plan_cache.create ~fs ~dir ());
            Alcotest.(check int) (fixture ^ ": no second import") 0
              (Fs_io.op_count fs Fs_io.Rename + Fs_io.op_count fs Fs_io.Remove);
            let r = Plan_cache.fsck ~dir () in
            Alcotest.(check bool) (fixture ^ ": fsck clean") true
              (Plan_cache.fsck_clean r);
            Alcotest.(check int) (fixture ^ ": fsck live") 4 r.Plan_cache.live)
          fixtures);
    Alcotest.test_case "v1-import-survives-a-crash-at-each-step" `Quick
      (fun () ->
        let fixture = fixture "v1-stamped" in
        let (want, _) = oracle_view fixture in
        let steps =
          List.concat_map
            (fun mode ->
              { Fs_io.op = Fs_io.Rename; after = 0; mode }
              :: List.init 4 (fun after -> { Fs_io.op = Fs_io.Remove; after; mode }))
            [ Fs_io.Crash_before; Fs_io.Crash_after ]
        in
        List.iter
          (fun fault ->
            let dir = Log_records.copy_dir fixture in
            (match Plan_cache.create ~fs:(Fs_io.faulty [ fault ]) ~dir () with
            | _ -> Alcotest.fail "expected a simulated crash mid-import"
            | exception Fs_io.Crashed _ -> ());
            let (served, _) = log_view dir in
            Alcotest.(check bool) "every plan served after the crash" true
              (List.map fst served = List.map fst want);
            Alcotest.(check bool) "fsck clean" true
              (Plan_cache.fsck_clean (Plan_cache.fsck ~dir ()));
            Alcotest.(check (list string)) "leftover entry files swept" []
              (Log_records.plan_files dir))
          steps);
  ]

let suites =
  [
    ("service.faults", fault_point_tests);
    ("service.journal", journal_tests);
    ("service.multiprocess", multiprocess_tests);
    ("service.degradation", degradation_tests);
    ("service.known_bad", known_bad_tests);
    ("service.economy_faults", economy_fault_tests);
    ("service.quarantine_ttl", quarantine_ttl_tests);
    ("service.import", import_tests);
  ]
