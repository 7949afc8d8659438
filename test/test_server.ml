(* The plan-serving daemon: pinned protocol-codec cases, framing edge
   cases, the tuning table's flights and workers, and the daemon's
   concurrency contracts — single-flight deduplication, admission
   control, graceful drain — exercised against an in-process server
   with an injected (gated, counting) tuner so scheduling is
   deterministic and no test pays for real tuning unless it means to. *)

open Amos
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Clock = Amos_service.Clock
module Json = Amos_server.Json
module Protocol = Amos_server.Protocol
module Admission = Amos_server.Admission
module Server = Amos_server.Server
module Client = Amos_server.Client
module Net_io = Amos_server.Net_io
module Transport = Amos_server.Transport

let small_budget =
  { Fingerprint.population = 2; generations = 1; measure_top = 1; seed = 7 }

let wait_for ?(timeout = 10.) msg pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.fail ("timed out waiting for " ^ msg)
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

(* --- protocol codec ------------------------------------------------- *)

let a_budget =
  { Fingerprint.population = 16; generations = 8; measure_top = 3; seed = 2022 }

let sample_requests =
  [
    Protocol.Health;
    Protocol.Stats;
    Protocol.Shutdown;
    Protocol.Lookup
      { accel = "toy"; op = Protocol.Layer "C5"; budget = a_budget };
    Protocol.Tune
      {
        accel = "a100";
        op = Protocol.Kind { kind = "GMM"; batch = 16; index = 2 };
        budget = a_budget;
      };
    Protocol.Migrate_tune
      {
        accel = "ascend";
        op =
          Protocol.Dsl_text
            "for {i:4, j:4} for {r:4r}: out[i,j] += a[i,r] * b[r,j]";
        budget = a_budget;
      };
    Protocol.Compile
      {
        accel = "v100";
        network = "resnet18";
        batch = 1;
        budget = a_budget;
        jobs = 4;
      };
    Protocol.Cancel { request_id = 90125 };
  ]

let sample_responses =
  [
    Protocol.Ok_r "amosd protocol v1";
    Protocol.Plan_r
      {
        Protocol.fingerprint = "0123456789abcdef0123456789abcdef";
        plan = Protocol.Wire_scalar;
        source = "cache";
        evaluations = 0;
        tuning_seconds = 0.;
      };
    Protocol.Plan_r
      {
        Protocol.fingerprint = "feedfacefeedfacefeedfacefeedface";
        plan = Protocol.Wire_spatial "intrinsic toy\nassign i=i1\nstage 2\n";
        source = "tuned";
        evaluations = 37;
        tuning_seconds = 1.25;
      };
    Protocol.Not_found_r;
    Protocol.Stats_r
      {
        Protocol.uptime_s = 12.5;
        requests = 9;
        tunes = 2;
        deduped = 3;
        hot_hits = 1;
        cache_hits = 2;
        busy_rejections = 1;
        deadline_rejections = 2;
        cancels = 1;
        in_flight = 1;
        queue_load = 2;
        hot_bytes = 4096;
        hot_tuning_seconds = 7.5;
        cache_bytes = 65536;
        quarantine_retunes = 1;
        forwarded = 2;
        peer_hits = 1;
        peer_fallbacks = 1;
        budget_fallbacks = 1;
        auth_rejections = 3;
      };
    Protocol.Compiled_r
      {
        Protocol.network = "resnet18";
        total_ops = 29;
        mapped_ops = 27;
        network_seconds = 0.004;
        stages = 12;
        comp_cache_hits = 10;
        comp_tuned = 2;
      };
    Protocol.Busy_r { retry_after_s = 0.25 };
    Protocol.Progress_r
      {
        Protocol.pg_generation = 3;
        pg_best_predicted = Some 0.0025;
        pg_best_measured = Some 0.0031;
        pg_evaluations = 48;
      };
    Protocol.Progress_r
      {
        (* unknown-yet latencies are absent on the wire, not NaN *)
        Protocol.pg_generation = 1;
        pg_best_predicted = None;
        pg_best_measured = None;
        pg_evaluations = 0;
      };
    Protocol.Cancelled_r;
    Protocol.Deadline_hint_r { projected_wait_s = 1.75 };
    Protocol.Error_r "unknown accelerator warp9";
  ]

let codec_tests =
  [
    Alcotest.test_case "every-request-round-trips" `Quick (fun () ->
        List.iter
          (fun r ->
            match Protocol.decode_request (Protocol.encode_request r) with
            | Ok (r', env) ->
                Alcotest.(check bool) "request round-trips" true (r = r');
                Alcotest.(check bool)
                  "empty envelope" true
                  (env = Protocol.empty_envelope)
            | Error msg -> Alcotest.fail msg)
          sample_requests);
    Alcotest.test_case "deadline-rides-the-envelope" `Quick (fun () ->
        List.iter
          (fun r ->
            match
              Protocol.decode_request
                (Protocol.encode_request ~deadline_ms:750 r)
            with
            | Ok (r', env) ->
                Alcotest.(check bool) "request round-trips" true (r = r');
                Alcotest.(check (option int)) "deadline decoded" (Some 750)
                  env.Protocol.env_deadline_ms
            | Error msg -> Alcotest.fail msg)
          sample_requests);
    Alcotest.test_case "stream-envelope-round-trips" `Quick (fun () ->
        List.iter
          (fun r ->
            match
              Protocol.decode_request
                (Protocol.encode_request ~request_id:77 ~accept_stream:true r)
            with
            | Ok (r', env) ->
                Alcotest.(check bool) "request round-trips" true (r = r');
                Alcotest.(check (option int)) "request id decoded" (Some 77)
                  env.Protocol.env_request_id;
                Alcotest.(check bool) "accept_stream decoded" true
                  env.Protocol.env_accept_stream
            | Error msg -> Alcotest.fail msg)
          sample_requests);
    Alcotest.test_case "streamless-encoding-unchanged" `Quick (fun () ->
        (* a client that never opts into streaming must emit exactly the
           bytes a PR-9 client emitted — old daemons keep decoding it *)
        List.iter
          (fun r ->
            let plain = Protocol.encode_request r in
            let explicit = Protocol.encode_request ~accept_stream:false r in
            Alcotest.(check string) "accept_stream:false adds nothing" plain
              explicit;
            let mentions needle =
              let n = String.length needle and h = String.length plain in
              let rec go i =
                i + n <= h && (String.sub plain i n = needle || go (i + 1))
              in
              go 0
            in
            Alcotest.(check bool) "no stream fields on the wire" false
              (mentions "accept_stream" || mentions "request_id"))
          sample_requests);
    Alcotest.test_case "every-response-round-trips" `Quick (fun () ->
        List.iter
          (fun r ->
            match Protocol.decode_response (Protocol.encode_response r) with
            | Ok r' ->
                Alcotest.(check bool) "response round-trips" true (r = r')
            | Error msg -> Alcotest.fail msg)
          sample_responses);
    Alcotest.test_case "unknown-version-rejected" `Quick (fun () ->
        List.iter
          (fun payload ->
            match Protocol.decode_request payload with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("accepted: " ^ payload))
          [
            {|{"v":2,"type":"health"}|};
            {|{"v":0,"type":"health"}|};
            {|{"type":"health"}|};
            {|{"v":"1","type":"health"}|};
          ]);
    Alcotest.test_case "garbage-and-unknowns-rejected" `Quick (fun () ->
        List.iter
          (fun payload ->
            (match Protocol.decode_request payload with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("request accepted: " ^ payload));
            match Protocol.decode_response payload with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail ("response accepted: " ^ payload))
          [
            "";
            "\x00\x01\x02binary";
            "not json at all";
            "[1,2,3]";
            {|{"v":1,"type":"frobnicate"}|};
            {|{"v":1,"type":"tune","accel":"toy"}|};
            {|{"v":1}|};
          ]);
    Alcotest.test_case "json-floats-stay-floats" `Quick (fun () ->
        (* the codec must not collapse 2.0 into 2: budgets are ints,
           latencies are floats, and a round trip may not blur them *)
        List.iter
          (fun (text, v) ->
            match Json.of_string text with
            | Ok v' -> Alcotest.(check bool) text true (v = v')
            | Error msg -> Alcotest.fail msg)
          [
            ("2", Json.Int 2);
            ("2.0", Json.Float 2.);
            ("-0.5", Json.Float (-0.5));
            ("1e3", Json.Float 1000.);
            ({|"a\nbA"|}, Json.String "a\nbA");
          ];
        match Json.of_string (Json.to_string (Json.Float 2.)) with
        | Ok (Json.Float f) -> Alcotest.(check (float 0.)) "2.0" 2. f
        | _ -> Alcotest.fail "Float 2. must re-parse as Float");
  ]

(* --- framing --------------------------------------------------------- *)

let with_pipe f =
  let r, w = Unix.pipe ~cloexec:true () in
  let closed = ref [] in
  let close fd =
    if not (List.memq fd !closed) then begin
      closed := fd :: !closed;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      close r;
      close w)
    (fun () -> f r w close)

let write_raw fd s =
  ignore (Unix.write fd (Bytes.of_string s) 0 (String.length s))

let framing_tests =
  [
    Alcotest.test_case "frame-round-trips" `Quick (fun () ->
        with_pipe (fun r w _ ->
            let rd = Protocol.reader r in
            List.iter
              (fun payload ->
                Protocol.write_frame w payload;
                match Protocol.read_frame rd with
                | Ok p -> Alcotest.(check string) "payload" payload p
                | Error `Eof -> Alcotest.fail "eof"
                | Error (`Bad m) -> Alcotest.fail m)
              [ "hello"; ""; String.make 4096 'x'; "{\"v\":1}" ]));
    Alcotest.test_case "clean-eof-detected" `Quick (fun () ->
        with_pipe (fun r w close ->
            close w;
            match Protocol.read_frame (Protocol.reader r) with
            | Error `Eof -> ()
            | Ok _ | Error (`Bad _) -> Alcotest.fail "expected Eof"));
    Alcotest.test_case "truncated-payload-rejected" `Quick (fun () ->
        with_pipe (fun r w close ->
            write_raw w "32\nonly-a-few-bytes";
            close w;
            match Protocol.read_frame (Protocol.reader r) with
            | Error (`Bad _) -> ()
            | Ok _ | Error `Eof -> Alcotest.fail "expected Bad"));
    Alcotest.test_case "truncated-header-rejected" `Quick (fun () ->
        with_pipe (fun r w close ->
            write_raw w "123";
            close w;
            match Protocol.read_frame (Protocol.reader r) with
            | Error (`Bad _) -> ()
            | Ok _ | Error `Eof -> Alcotest.fail "expected Bad"));
    Alcotest.test_case "oversized-frame-rejected-before-read" `Quick
      (fun () ->
        with_pipe (fun r w _ ->
            (* 99,999,999 > 4 MiB: rejected on the header alone — the
               payload is never buffered (and is not even present) *)
            write_raw w "99999999\n";
            match Protocol.read_frame (Protocol.reader r) with
            | Error (`Bad msg) ->
                Alcotest.(check bool) "mentions the limit" true
                  (String.length msg > 0)
            | Ok _ | Error `Eof -> Alcotest.fail "expected Bad"));
    Alcotest.test_case "absurd-header-rejected" `Quick (fun () ->
        with_pipe (fun r w _ ->
            write_raw w "123456789123\n";
            match Protocol.read_frame (Protocol.reader r) with
            | Error (`Bad _) -> ()
            | Ok _ | Error `Eof -> Alcotest.fail "expected Bad"));
    Alcotest.test_case "garbage-header-rejected" `Quick (fun () ->
        with_pipe (fun r w _ ->
            write_raw w "xx\n";
            match Protocol.read_frame (Protocol.reader r) with
            | Error (`Bad _) -> ()
            | Ok _ | Error `Eof -> Alcotest.fail "expected Bad"));
    Alcotest.test_case "missing-terminator-rejected" `Quick (fun () ->
        with_pipe (fun r w _ ->
            write_raw w "3\nabcX";
            match Protocol.read_frame (Protocol.reader r) with
            | Error (`Bad _) -> ()
            | Ok _ | Error `Eof -> Alcotest.fail "expected Bad"));
    Alcotest.test_case "two-frames-in-one-write-both-read" `Quick (fun () ->
        with_pipe (fun r w close ->
            write_raw w "5\nhello\n5\nworld\n";
            close w;
            let net = Net_io.faulty [] in
            let rd = Protocol.reader ~net r in
            let next () =
              match Protocol.read_frame rd with
              | Ok p -> p
              | Error `Eof -> "<eof>"
              | Error (`Bad m) -> "<bad " ^ m ^ ">"
            in
            let first = next () in
            let second = next () in
            Alcotest.(check (list string)) "both frames, in order"
              [ "hello"; "world" ] [ first; second ];
            Alcotest.(check int) "one read took both" 1
              (Net_io.op_count net Net_io.Read);
            Alcotest.(check string) "then a clean end" "<eof>" (next ())));
    Alcotest.test_case "frame-larger-than-the-initial-buffer" `Quick
      (fun () ->
        let a, b =
          Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
        in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
              [ a; b ])
          (fun () ->
            (* 300 kB: far past the 4 KiB start and a socket buffer, so
               the reader grows and fills over many reads *)
            let big = String.init 300_000 (fun i -> Char.chr (i land 0xFF)) in
            let writer =
              Thread.create
                (fun () ->
                  Protocol.write_frame a big;
                  Protocol.write_frame a "after")
                ()
            in
            let rd = Protocol.reader b in
            let got = Protocol.read_frame rd in
            let after = Protocol.read_frame rd in
            Thread.join writer;
            (match got with
            | Ok p ->
                Alcotest.(check bool) "large payload intact" true (p = big)
            | Error `Eof -> Alcotest.fail "eof"
            | Error (`Bad m) -> Alcotest.fail m);
            match after with
            | Ok p -> Alcotest.(check string) "next frame intact" "after" p
            | Error `Eof -> Alcotest.fail "eof"
            | Error (`Bad m) -> Alcotest.fail m));
    Alcotest.test_case "one-byte-per-read-still-frames" `Quick (fun () ->
        with_pipe (fun r w _ ->
            let payload = "{\"v\":1,\"type\":\"health\"}" in
            Protocol.write_frame w payload;
            Protocol.write_frame w "x";
            let net =
              Net_io.faulty
                (List.init 64 (fun after ->
                     { Net_io.op = Net_io.Read; after; mode = Net_io.Short 1 }))
            in
            let rd = Protocol.reader ~net r in
            (match Protocol.read_frame rd with
            | Ok p -> Alcotest.(check string) "payload" payload p
            | Error `Eof -> Alcotest.fail "eof"
            | Error (`Bad m) -> Alcotest.fail m);
            (* "24\n", the payload, '\n': one byte per read *)
            Alcotest.(check int) "one read per byte"
              (String.length payload + 4)
              (Net_io.op_count net Net_io.Read);
            match Protocol.read_frame rd with
            | Ok p -> Alcotest.(check string) "next frame" "x" p
            | Error `Eof -> Alcotest.fail "eof"
            | Error (`Bad m) -> Alcotest.fail m));
    Alcotest.test_case "hello-and-first-request-in-one-write" `Quick
      (fun () ->
        let server =
          Server.create
            {
              (Server.default_config ~socket_path:"unused") with
              Server.socket_path = None;
              tcp = Some ("127.0.0.1", 0);
              auth_token = Some "sesame";
            }
        in
        let thread = Thread.create Server.serve server in
        let port = Option.get (Server.tcp_port server) in
        let fd =
          Transport.connect (Transport.Tcp { host = "127.0.0.1"; port })
        in
        Fun.protect
          ~finally:(fun () ->
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Server.stop server;
            Thread.join thread)
          (fun () ->
            (* a lost request fails the test instead of hanging it *)
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
            (* the handshake reads the hello; the request loop must find
               the request the same write carried *)
            let frame payload =
              Printf.sprintf "%d\n%s\n" (String.length payload) payload
            in
            write_raw fd
              (frame
                 (Protocol.encode_hello
                    {
                      Protocol.hello_version = Protocol.version;
                      token = "sesame";
                      peer = false;
                    })
              ^ frame (Protocol.encode_request Protocol.Health));
            let rd = Protocol.reader fd in
            (match Protocol.read_frame rd with
            | Ok p -> (
                match Protocol.decode_hello_reply p with
                | Ok Protocol.Hello_ok -> ()
                | _ -> Alcotest.fail ("hello refused: " ^ p))
            | Error _ -> Alcotest.fail "no hello reply");
            match Protocol.read_frame rd with
            | Ok p -> (
                match Protocol.decode_response p with
                | Ok (Protocol.Ok_r _) -> ()
                | _ -> Alcotest.fail ("health not answered: " ^ p))
            | Error `Eof -> Alcotest.fail "request lost: connection closed"
            | Error (`Bad m) -> Alcotest.fail m));
    Alcotest.test_case "oversized-write-refused" `Quick (fun () ->
        with_pipe (fun _ w _ ->
            match
              Protocol.write_frame w
                (String.make (Protocol.max_frame_bytes + 1) 'x')
            with
            | () -> Alcotest.fail "must refuse oversized payloads"
            | exception Invalid_argument _ -> ()));
  ]

(* --- the tuning table's flights and workers ---------------------------- *)

(* a table stepped by hand on a virtual clock: no worker is started *)
let table () =
  Admission.create ~clock:(Clock.virtual_ ()) ~workers:4 ~capacity:8 ()

let submit_lead q key job =
  match Admission.submit q ~client:"a" ~key job with
  | `Admitted w -> w
  | `Joined _ | `Busy | `Deadline _ -> Alcotest.fail "first submit must lead"

let submit_join ?streaming ?request_id q key =
  match
    Admission.submit q ~client:"b" ~key ?streaming ?request_id (fun _ ->
        Alcotest.fail "a joiner's job must never run")
  with
  | `Joined w -> w
  | `Admitted _ | `Busy | `Deadline _ -> Alcotest.fail "must join"

(* take the next job and run it to its end *)
let run_next q =
  match Admission.take q with
  | Some job -> job ()
  | None -> Alcotest.fail "a queued job must be takeable"

(* take the next job, a parked one, and run it until it parks: its
   flight is now in hand and it returns whatever it is resumed with *)
let start_parked q =
  match Admission.take q with
  | Some job -> Test_admission.run_parked job
  | None -> Alcotest.fail "a queued job must be takeable"

let parked_job flight fl =
  flight := Some fl;
  Effect.perform Test_admission.Park

let finish p v =
  match Test_admission.resume p v with
  | Test_admission.Finished -> ()
  | Test_admission.Parked _ -> Alcotest.fail "a resumed job must finish"

let got name q w =
  match Admission.next q w with
  | `Done v -> v
  | `Progress _ | `Failed _ | `Cancelled ->
      Alcotest.fail (name ^ ": expected the flight's value")

(* a table whose submits spawn real worker domains *)
let started_table ~workers =
  let q = Admission.create ~clock:(Clock.real ()) ~workers ~capacity:8 () in
  Admission.start q;
  q

(* a job returning the domain it ran on *)
let on_domain _ = (Domain.self () :> int)

let primitive_tests =
  [
    Alcotest.test_case "single-flight-leader-then-joiners" `Quick (fun () ->
        let q = table () in
        let lead = submit_lead q "k" (fun _ -> 42) in
        let join = submit_join q "k" in
        Alcotest.(check int) "one in flight" 1 (Admission.in_flight q);
        run_next q;
        Alcotest.(check int) "leader's value" 42 (got "leader" q lead);
        Alcotest.(check int) "joiner's value" 42 (got "joiner" q join);
        Alcotest.(check int) "retired" 0 (Admission.in_flight q);
        (* the resolved key starts a fresh flight *)
        let fresh = submit_lead q "k" (fun _ -> 7) in
        run_next q;
        Alcotest.(check int) "fresh flight's value" 7 (got "fresh" q fresh);
        (* a flight resolves once: the next flight of its key leaves it *)
        Alcotest.(check int) "first completion wins" 42 (got "leader" q lead));
    Alcotest.test_case "single-flight-progress-streams-per-waiter" `Quick
      (fun () ->
        let q = table () in
        let lead =
          submit_lead q "k" (fun fl ->
              Admission.publish q fl "gen1";
              Admission.publish q fl "gen2";
              5)
        in
        let streamer = submit_join ~streaming:true q "k" in
        let plain = submit_join q "k" in
        run_next q;
        (* streaming waiter drains every snapshot in publish order,
           then the result; the plain waiters skip straight to it *)
        (match Admission.next q streamer with
        | `Progress p -> Alcotest.(check string) "first snapshot" "gen1" p
        | _ -> Alcotest.fail "expected first snapshot");
        (match Admission.next q streamer with
        | `Progress p -> Alcotest.(check string) "second snapshot" "gen2" p
        | _ -> Alcotest.fail "expected second snapshot");
        Alcotest.(check int) "streamer result" 5 (got "streamer" q streamer);
        Alcotest.(check int) "plain waiter result" 5 (got "plain" q plain);
        Alcotest.(check int) "leader result" 5 (got "leader" q lead));
    Alcotest.test_case "single-flight-cancel-is-per-waiter" `Quick (fun () ->
        let q = table () in
        let flight = ref None in
        let lead = submit_lead q "k" (parked_job flight) in
        let join = submit_join ~streaming:true ~request_id:1 q "k" in
        let p = start_parked q in
        let f = Option.get !flight in
        Admission.publish q f "stale";
        Alcotest.(check bool) "cancel finds the id" true (Admission.cancel q 1);
        (* cancellation preempts queued progress and the co-waiter sees
           nothing: the flight is still live and completable *)
        (match Admission.next q join with
        | `Cancelled -> ()
        | _ -> Alcotest.fail "cancelled waiter must observe `Cancelled");
        Alcotest.(check bool) "flight not aborted" false
          (Admission.abort_requested f);
        finish p 11;
        Alcotest.(check int) "co-waiter unaffected" 11 (got "leader" q lead));
    Alcotest.test_case "single-flight-last-detach-requests-abort" `Quick
      (fun () ->
        let q = table () in
        let flight = ref None in
        let lead = submit_lead q "k" (parked_job flight) in
        let join = submit_join q "k" in
        let p = start_parked q in
        let f = Option.get !flight in
        Alcotest.(check int) "one waiter left" 1 (Admission.detach q join);
        Alcotest.(check bool) "abort not yet requested" false
          (Admission.abort_requested f);
        (* detach is idempotent: repeating it must not double-decrement *)
        Alcotest.(check int) "repeat detach is a no-op" 1
          (Admission.detach q join);
        Alcotest.(check int) "no waiters left" 0 (Admission.detach q lead);
        Alcotest.(check bool) "last detach raises abort" true
          (Admission.abort_requested f);
        (* fresh interest withdraws the abort request *)
        let w = submit_join q "k" in
        Alcotest.(check bool) "join withdraws abort" false
          (Admission.abort_requested f);
        ignore (Admission.detach q w);
        finish p 0);
    Alcotest.test_case "single-flight-detached-socket-cannot-block" `Quick
      (fun () ->
        (* regression: a waiter that walked away (dead socket) must not
           stall delivery — publish is enqueue-only and completion never
           waits on any waiter draining its queue *)
        let q = table () in
        let flight = ref None in
        let lead = submit_lead q "k" (parked_job flight) in
        let dead = submit_join ~streaming:true q "k" in
        let p = start_parked q in
        let f = Option.get !flight in
        (* the dead client never drains; it detaches (connection reaped)
           with snapshots still queued *)
        Admission.publish q f "gen1";
        ignore (Admission.detach q dead);
        Admission.publish q f "gen2";
        finish p 9;
        Alcotest.(check int) "flight resolved" 9 (got "leader" q lead));
    Alcotest.test_case "admission-workers-bounded-and-drain" `Quick
      (fun () ->
        let q =
          Admission.create ~clock:(Clock.real ()) ~workers:1 ~capacity:1 ()
        in
        Admission.start q;
        let gate = Semaphore.Counting.make 0 in
        let started = Atomic.make 0 in
        let finished = Atomic.make 0 in
        let job _ =
          Atomic.incr started;
          Semaphore.Counting.acquire gate;
          Atomic.incr finished
        in
        let submit key =
          match Admission.submit q ~client:"a" ~key job with
          | `Admitted _ -> `Admitted
          | `Joined _ -> `Joined
          | `Busy -> `Busy
          | `Deadline _ -> `Deadline
        in
        (* no worker runs before this submit, which spawns the table's
           one worker for job 1 *)
        Alcotest.(check bool) "first job admitted" true
          (submit "1" = `Admitted);
        (* wait until the worker holds job 1, so the backlog is empty *)
        wait_for "worker to pick up job 1" (fun () -> Atomic.get started = 1);
        Alcotest.(check bool) "second job queues" true (submit "2" = `Admitted);
        Alcotest.(check bool) "third job refused (backlog full)" true
          (submit "3" = `Busy);
        Alcotest.(check int) "load counts queued + running" 2
          (Admission.load q);
        Semaphore.Counting.release gate;
        Semaphore.Counting.release gate;
        (* close lets the worker run both admitted jobs, then joins it *)
        Admission.close q;
        Alcotest.(check int) "both admitted jobs ran" 2 (Atomic.get finished);
        Alcotest.(check bool) "after close nothing is admitted" true
          (submit "4" = `Busy));
    Alcotest.test_case "workers-spawn-on-the-first-submit" `Quick (fun () ->
        let q = started_table ~workers:2 in
        Alcotest.(check int) "no worker before a submit" 0 (Admission.live q);
        let ran_on = got "job" q (submit_lead q "k" on_domain) in
        Alcotest.(check bool) "ran on a worker domain" true
          (ran_on <> (Domain.self () :> int));
        Alcotest.(check int) "one worker spawned" 1 (Admission.live q);
        Admission.close q);
    Alcotest.test_case "back-to-back-jobs-share-one-domain" `Quick (fun () ->
        let q = started_table ~workers:2 in
        let ran_on =
          List.map
            (fun key -> got key q (submit_lead q key on_domain))
            [ "1"; "2"; "3" ]
        in
        Alcotest.(check int) "one domain ran them all" 1
          (List.length (List.sort_uniq compare ran_on));
        Alcotest.(check int) "one worker live" 1 (Admission.live q);
        Admission.close q);
    Alcotest.test_case "burst-runs-at-most-workers-at-once" `Quick (fun () ->
        let q = started_table ~workers:2 in
        let gate = Semaphore.Counting.make 0 in
        let running = Atomic.make 0 and peak = Atomic.make 0 in
        let job _ =
          let n = Atomic.fetch_and_add running 1 + 1 in
          let rec raise_peak () =
            let p = Atomic.get peak in
            if n > p && not (Atomic.compare_and_set peak p n) then raise_peak ()
          in
          raise_peak ();
          Semaphore.Counting.acquire gate;
          Atomic.decr running;
          on_domain ()
        in
        (* once the first worker holds a job, the next submit finds no
           free worker and spawns the second *)
        let first = submit_lead q "0" job in
        wait_for "the first job running" (fun () -> Atomic.get running = 1);
        let second = submit_lead q "1" job in
        wait_for "two jobs running" (fun () -> Atomic.get running = 2);
        let waiters =
          first :: second
          :: List.init 4 (fun i -> submit_lead q (string_of_int (i + 2)) job)
        in
        Alcotest.(check int) "two workers live" 2 (Admission.live q);
        Alcotest.(check int) "the rest queued" 4 (Admission.depth q);
        for _ = 1 to 6 do
          Semaphore.Counting.release gate
        done;
        let ran_on = List.map (got "burst job" q) waiters in
        Alcotest.(check int) "never more than two at once" 2 (Atomic.get peak);
        Alcotest.(check int) "on two domains" 2
          (List.length (List.sort_uniq compare ran_on));
        Admission.close q);
    Alcotest.test_case "idle-worker-exits-after-a-full-tick" `Quick (fun () ->
        let q = started_table ~workers:1 in
        let first = got "first" q (submit_lead q "1" on_domain) in
        Admission.tick q;
        (* waited from before one tick, not yet until the next: kept;
           the pause gives a worker that exits early the time to *)
        Thread.delay 0.02;
        Alcotest.(check int) "one tick keeps the worker live" 1
          (Admission.live q);
        let second = got "second" q (submit_lead q "2" on_domain) in
        Alcotest.(check int) "one tick keeps the worker" first second;
        Admission.tick q;
        Admission.tick q;
        wait_for "the idle worker to exit" (fun () -> Admission.live q = 0);
        let third = got "third" q (submit_lead q "3" on_domain) in
        Alcotest.(check bool) "the next submit runs on a fresh domain" true
          (third <> first);
        Admission.close q;
        Alcotest.(check int) "none live after close" 0 (Admission.live q));
    Alcotest.test_case "close-drains-a-backlog-and-leaves-no-worker" `Quick
      (fun () ->
        let q = started_table ~workers:1 in
        let gate = Semaphore.Counting.make 0 in
        let finished = Atomic.make 0 in
        let job _ =
          Semaphore.Counting.acquire gate;
          Atomic.incr finished
        in
        let waiters =
          List.init 4 (fun i -> submit_lead q (string_of_int i) job)
        in
        wait_for "the worker to hold job 0" (fun () -> Admission.depth q = 3);
        (* open the gate only once the close has begun, so the close
           meets a backlog: until then a probe joins job 0's flight, and
           from then on every submit is refused *)
        let rec probe () =
          match Admission.submit q ~client:"b" ~key:"0" ignore with
          | `Joined w ->
              ignore (Admission.detach q w);
              Thread.yield ();
              probe ()
          | refusal -> refusal
        in
        let refused = ref false in
        let opener =
          Thread.create
            (fun () ->
              refused := (match probe () with `Busy -> true | _ -> false);
              for _ = 1 to 4 do
                Semaphore.Counting.release gate
              done)
            ()
        in
        Admission.close q;
        Thread.join opener;
        Alcotest.(check bool) "the probe was refused by the close" true
          !refused;
        Alcotest.(check int) "every admitted job ran" 4 (Atomic.get finished);
        Alcotest.(check int) "no worker live" 0 (Admission.live q);
        List.iter (fun w -> got "drained" q w) waiters);
    Alcotest.test_case "refused-submit-leaves-no-flight" `Quick (fun () ->
        let clock = Clock.virtual_ () in
        let q = Admission.create ~clock ~workers:1 ~capacity:1 () in
        (* one 2 s job seeds the EWMA *)
        ignore (submit_lead q "seed" (fun _ -> Clock.advance clock 2.0));
        run_next q;
        ignore (submit_lead q "a" ignore);
        let busy = Admission.submit q ~client:"b" ~key:"b" ignore in
        Alcotest.(check bool) "full backlog is Busy" true (busy = `Busy);
        Alcotest.(check int) "a Busy leaves no flight" 1
          (Admission.in_flight q);
        (* "a" running projects one 2 s job of wait *)
        let running = Option.get (Admission.take q) in
        (match
           Admission.submit q ~client:"b" ~key:"b" ~deadline_ms:500 ignore
         with
        | `Deadline w -> Alcotest.(check (float 1e-9)) "projected" 2.0 w
        | _ -> Alcotest.fail "a 0.5 s budget against 2 s must bounce");
        Alcotest.(check int) "a Deadline leaves no flight" 1
          (Admission.in_flight q);
        running ();
        (* the next submit of the refused key leads a flight of its own *)
        ignore (submit_lead q "b" ignore);
        Alcotest.(check int) "led afresh" 1 (Admission.in_flight q));
    Alcotest.test_case "raising-job-resolves-every-waiter" `Quick (fun () ->
        let q = table () in
        let lead = submit_lead q "k" (fun _ -> failwith "boom") in
        let streamer = submit_join ~streaming:true q "k" in
        let plain = submit_join q "k" in
        (* the thunk never raises: the job's exception resolves the flight *)
        run_next q;
        List.iter
          (fun (name, w) ->
            match Admission.next q w with
            | `Failed (Failure msg) -> Alcotest.(check string) name "boom" msg
            | _ -> Alcotest.fail (name ^ ": expected the job's exception"))
          [ ("leader", lead); ("streamer", streamer); ("plain", plain) ];
        Alcotest.(check int) "nothing in flight" 0 (Admission.in_flight q);
        Alcotest.(check int) "slot released" 0 (Admission.load q);
        ignore (submit_lead q "k" ignore));
    Alcotest.test_case "join-after-close-is-busy" `Quick (fun () ->
        let q = table () in
        let lead = submit_lead q "k" (fun _ -> 3) in
        Admission.close q;
        List.iter
          (fun key ->
            match Admission.submit q ~client:"b" ~key (fun _ -> 0) with
            | `Busy -> ()
            | _ -> Alcotest.fail ("a submit after close must be Busy: " ^ key))
          [ "k"; "other" ];
        (* the admitted backlog still drains to its waiters *)
        run_next q;
        Alcotest.(check int) "admitted flight served" 3 (got "leader" q lead));
  ]

(* --- in-process daemon ------------------------------------------------ *)

let gemm_text = "for {i:4, j:4} for {r:4r}: out[i,j] += a[i,r] * b[r,j]"
let gemm2_text = "for {i:8, j:2} for {r:4r}: out[i,j] += a[i,r] * b[r,j]"
let gemm3_text = "for {i:2, j:8} for {r:4r}: out[i,j] += a[i,r] * b[r,j]"

let tune_req text =
  Protocol.Tune
    { accel = "toy"; op = Protocol.Dsl_text text; budget = small_budget }

(* a tuner whose every invocation parks on a semaphore: the test decides
   when tuning "finishes", making coalescing windows deterministic *)
let gated_tuner () =
  let gate = Semaphore.Counting.make 0 in
  let calls = Atomic.make 0 in
  let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
    Atomic.incr calls;
    Semaphore.Counting.acquire gate;
    { Server.value = Plan_cache.Scalar; evaluations = 1 }
  in
  (tuner, gate, calls)

let start_server ?tuner ?clock ?(workers = 1) ?(queue = 4) ?cache_dir
    ?(hot_capacity = 16) ?hot_max_bytes () =
  let socket_path = Temp.name ~suffix:".sock" "amosd" in
  let server =
    Server.create ?tuner ?clock
      {
        (Server.default_config ~socket_path) with
        cache_dir;
        workers;
        queue_capacity = queue;
        hot_capacity;
        hot_max_bytes;
      }
  in
  let thread = Thread.create Server.serve server in
  (server, thread, socket_path)

let request_in_thread socket req =
  let result = ref (Error "never ran") in
  let thread =
    Thread.create
      (fun () ->
        result :=
          Client.with_conn ~attempts:50 socket (fun c -> Client.request c req))
      ()
  in
  (thread, result)

let plan_of result name =
  match !result with
  | Ok (Protocol.Plan_r r) -> r
  | Ok _ -> Alcotest.fail (name ^ ": expected Plan_r")
  | Error msg -> Alcotest.fail (name ^ ": " ^ msg)

let daemon_tests =
  [
    Alcotest.test_case "identical-tunes-single-flight" `Quick (fun () ->
        let tuner, gate, calls = gated_tuner () in
        let server, thread, socket = start_server ~tuner () in
        (* client A leads: wait until its tune is actually in flight *)
        let ta, ra = request_in_thread socket (tune_req gemm_text) in
        wait_for "leader in flight" (fun () ->
            (Server.stats server).Protocol.in_flight = 1);
        (* client B asks for the identical tune: must coalesce, not queue *)
        let tb, rb = request_in_thread socket (tune_req gemm_text) in
        wait_for "joiner deduped" (fun () ->
            (Server.stats server).Protocol.deduped = 1);
        (* exactly one exploration releases both clients *)
        Semaphore.Counting.release gate;
        Thread.join ta;
        Thread.join tb;
        let a = plan_of ra "client A" and b = plan_of rb "client B" in
        Alcotest.(check int) "tuner invoked exactly once" 1 (Atomic.get calls);
        Alcotest.(check string) "same fingerprint" a.Protocol.fingerprint
          b.Protocol.fingerprint;
        let sources =
          List.sort compare [ a.Protocol.source; b.Protocol.source ]
        in
        Alcotest.(check (list string)) "one tuned, one deduped"
          [ "deduped"; "tuned" ] sources;
        let s = Server.stats server in
        Alcotest.(check int) "stats: one tune" 1 s.Protocol.tunes;
        Alcotest.(check int) "stats: one dedup" 1 s.Protocol.deduped;
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "accept-loop-ticks-while-connections-arrive" `Quick
      (fun () ->
        let ran_on = ref [] in
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
          ran_on := (Domain.self () :> int) :: !ran_on;
          { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        let server, thread, socket = start_server ~tuner () in
        let tune text =
          match
            Client.with_conn ~attempts:50 socket (fun c ->
                Client.request c (tune_req text))
          with
          | Ok (Protocol.Plan_r _) -> ()
          | _ -> Alcotest.fail "expected a plan"
        in
        tune gemm_text;
        (* a fresh connection every 20 ms for 1 s: no 0.25 s window of
           the accept loop passes without one, and its tick must still
           retire the idle worker *)
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < 1.0 do
          ignore
            (Client.with_conn ~attempts:50 socket (fun c ->
                 Client.request c Protocol.Health));
          Thread.delay 0.02
        done;
        tune gemm2_text;
        (match !ran_on with
        | [ second; first ] ->
            Alcotest.(check bool) "the second tune runs on a fresh domain"
              true (second <> first)
        | _ -> Alcotest.fail "expected two tunes");
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "overload-yields-busy-not-hang" `Quick (fun () ->
        let tuner, gate, calls = gated_tuner () in
        let server, thread, socket =
          start_server ~tuner ~workers:1 ~queue:1 ()
        in
        (* A occupies the only worker ... *)
        let ta, ra = request_in_thread socket (tune_req gemm_text) in
        wait_for "worker busy" (fun () -> Atomic.get calls = 1);
        (* ... B fills the only queue slot ... *)
        let tb, rb = request_in_thread socket (tune_req gemm2_text) in
        wait_for "queue full" (fun () ->
            let s = Server.stats server in
            s.Protocol.in_flight = 2 && s.Protocol.queue_load = 2);
        (* ... so C must be refused with a typed Busy, immediately *)
        let rc =
          Client.with_conn ~attempts:50 socket (fun c ->
              Client.request c (tune_req gemm3_text))
        in
        (match rc with
        | Ok (Protocol.Busy_r { retry_after_s }) ->
            (* 0.1 s + 0.05 s per queued or running tune, the running
               one counted once *)
            Alcotest.(check (float 1e-9)) "retry hint" 0.2 retry_after_s
        | Ok _ -> Alcotest.fail "expected Busy_r"
        | Error msg -> Alcotest.fail msg);
        Alcotest.(check int) "stats: one rejection" 1
          (Server.stats server).Protocol.busy_rejections;
        (* the admitted work still completes normally *)
        Semaphore.Counting.release gate;
        Semaphore.Counting.release gate;
        Thread.join ta;
        Thread.join tb;
        ignore (plan_of ra "client A");
        ignore (plan_of rb "client B");
        Alcotest.(check int) "only admitted tunes ran" 2 (Atomic.get calls);
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "shutdown-drains-in-flight-work" `Quick (fun () ->
        let tuner, gate, calls = gated_tuner () in
        let server, thread, socket = start_server ~tuner ~workers:1 () in
        let ta, ra = request_in_thread socket (tune_req gemm_text) in
        wait_for "tune in flight" (fun () -> Atomic.get calls = 1);
        (* B queues behind A's running tune on the only worker *)
        let tb, rb = request_in_thread socket (tune_req gemm2_text) in
        wait_for "second tune queued" (fun () ->
            (Server.stats server).Protocol.queue_load = 2);
        (* shutdown arrives while A's tune runs and B's waits; its thread
           snapshots the daemon the moment the answer arrives *)
        let rs = ref (Error "never ran") and at_answer = ref None in
        let ts =
          Thread.create
            (fun () ->
              rs :=
                Client.with_conn ~attempts:50 socket (fun c ->
                    Client.request c Protocol.Shutdown);
              at_answer := Some (Server.stats server))
            ()
        in
        Thread.delay 0.1;
        (* A's tune is still parked: shutdown must be draining, not done *)
        Alcotest.(check bool) "shutdown waits for the drain" true
          (!rs = Error "never ran");
        Semaphore.Counting.release gate;
        Semaphore.Counting.release gate;
        Thread.join ts;
        Thread.join ta;
        Thread.join tb;
        (match !rs with
        | Ok (Protocol.Ok_r _) -> ()
        | Ok _ -> Alcotest.fail "expected Ok_r from shutdown"
        | Error msg -> Alcotest.fail ("shutdown: " ^ msg));
        (match !at_answer with
        | Some s ->
            Alcotest.(check int) "both tunes done before Ok_r" 2
              s.Protocol.tunes;
            Alcotest.(check int) "no flight left unresolved" 0
              s.Protocol.in_flight
        | None -> Alcotest.fail "no snapshot at the shutdown answer");
        (* the drained tunes produced real answers, not errors *)
        ignore (plan_of ra "running client");
        ignore (plan_of rb "queued client");
        Alcotest.(check int) "the queued tune ran too" 2 (Atomic.get calls);
        Thread.join thread;
        Alcotest.(check bool) "socket released" false (Sys.file_exists socket));
    Alcotest.test_case "hot-and-cache-layers-serve-repeats" `Quick (fun () ->
        let calls = Atomic.make 0 in
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
          Atomic.incr calls;
          { Server.value = Plan_cache.Scalar; evaluations = 5 }
        in
        let server, thread, socket = start_server ~tuner () in
        Client.with_conn ~attempts:50 socket (fun c ->
            (match Client.request c (Protocol.Lookup
                                       {
                                         accel = "toy";
                                         op = Protocol.Dsl_text gemm_text;
                                         budget = small_budget;
                                       })
             with
            | Ok Protocol.Not_found_r -> ()
            | Ok _ -> Alcotest.fail "cold lookup must miss"
            | Error msg -> Alcotest.fail msg);
            (match Client.request c (tune_req gemm_text) with
            | Ok (Protocol.Plan_r r) ->
                Alcotest.(check string) "first is tuned" "tuned"
                  r.Protocol.source
            | Ok _ -> Alcotest.fail "expected Plan_r"
            | Error msg -> Alcotest.fail msg);
            (match Client.request c (tune_req gemm_text) with
            | Ok (Protocol.Plan_r r) ->
                Alcotest.(check string) "repeat is hot" "hot"
                  r.Protocol.source;
                Alcotest.(check int) "free" 0 r.Protocol.evaluations
            | Ok _ -> Alcotest.fail "expected Plan_r"
            | Error msg -> Alcotest.fail msg);
            match Client.request c (Protocol.Lookup
                                      {
                                        accel = "toy";
                                        op = Protocol.Dsl_text gemm_text;
                                        budget = small_budget;
                                      })
            with
            | Ok (Protocol.Plan_r r) ->
                Alcotest.(check string) "lookup served hot" "hot"
                  r.Protocol.source
            | Ok _ -> Alcotest.fail "warm lookup must hit"
            | Error msg -> Alcotest.fail msg);
        Alcotest.(check int) "one exploration total" 1 (Atomic.get calls);
        Alcotest.(check bool) "hot hits counted" true
          ((Server.stats server).Protocol.hot_hits >= 2);
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "persistent-cache-survives-restart" `Quick (fun () ->
        let dir = Temp.name "amosd-cache" in
        Sys.mkdir dir 0o755;
        let calls = Atomic.make 0 in
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
          Atomic.incr calls;
          { Server.value = Plan_cache.Scalar; evaluations = 5 }
        in
        let server1, thread1, socket1 =
          start_server ~tuner ~cache_dir:dir ()
        in
        (match
           Client.with_conn ~attempts:50 socket1 (fun c ->
               Client.request c (tune_req gemm_text))
         with
        | Ok (Protocol.Plan_r r) ->
            Alcotest.(check string) "cold run tunes" "tuned" r.Protocol.source
        | Ok _ -> Alcotest.fail "expected Plan_r"
        | Error msg -> Alcotest.fail msg);
        Server.stop server1;
        Thread.join thread1;
        (* a fresh daemon over the same directory serves from disk *)
        let server2, thread2, socket2 =
          start_server ~tuner ~cache_dir:dir ()
        in
        (match
           Client.with_conn ~attempts:50 socket2 (fun c ->
               Client.request c (tune_req gemm_text))
         with
        | Ok (Protocol.Plan_r r) ->
            Alcotest.(check string) "warm restart hits the cache" "cache"
              r.Protocol.source
        | Ok _ -> Alcotest.fail "expected Plan_r"
        | Error msg -> Alcotest.fail msg);
        Alcotest.(check int) "no second exploration" 1 (Atomic.get calls);
        Server.stop server2;
        Thread.join thread2);
    Alcotest.test_case "renamed-operator-binds-served-plan" `Quick (fun () ->
        (* one fingerprint, two spellings: the plan tuned for [i, j] is
           served to a client whose operator says [ii, jj], from the hot
           tier and, after a restart, from the cache tier, and it binds
           to the client's operator *)
        let renamed_text =
          "for {ii:4, jj:4} for {r:4r}: out[ii,jj] += a[ii,r] * b[r,jj]"
        in
        let accel = Option.get (Accelerator.by_name "toy") in
        let renamed = Amos_ir.Dsl.parse_exn ~name:"renamed" renamed_text in
        let tuner ~jobs:_ ~accel ~op ~budget:_ ~seeds:_ ~progress:_ =
          let m = List.hd (Compiler.mappings accel op) in
          { Server.value = Plan_cache.Spatial (m, Schedule.default m); evaluations = 1 }
        in
        let lookup = Protocol.Lookup
            { accel = "toy"; op = Protocol.Dsl_text renamed_text; budget = small_budget }
        in
        let served_binds name socket ~source =
          match Client.with_conn ~attempts:50 socket (fun c -> Client.request c lookup) with
          | Ok (Protocol.Plan_r { Protocol.source = s; plan = Protocol.Wire_spatial text; _ }) ->
              Alcotest.(check string) (name ^ ": tier") source s;
              Alcotest.(check bool) (name ^ ": binds to the client's operator") true
                (Plan_io.load accel renamed text <> None)
          | Ok _ -> Alcotest.fail (name ^ ": expected a spatial plan")
          | Error msg -> Alcotest.fail msg
        in
        let dir = Temp.name "amosd-cache" in
        Sys.mkdir dir 0o755;
        let server1, thread1, socket1 = start_server ~tuner ~cache_dir:dir () in
        (match
           Client.with_conn ~attempts:50 socket1 (fun c ->
               Client.request c (tune_req gemm_text))
         with
        | Ok (Protocol.Plan_r r) ->
            Alcotest.(check string) "the first spelling tunes" "tuned" r.Protocol.source
        | Ok _ -> Alcotest.fail "expected Plan_r"
        | Error msg -> Alcotest.fail msg);
        served_binds "hot" socket1 ~source:"hot";
        Server.stop server1;
        Thread.join thread1;
        let server2, thread2, socket2 = start_server ~tuner ~cache_dir:dir () in
        served_binds "after a restart" socket2 ~source:"cache";
        served_binds "re-admitted" socket2 ~source:"hot";
        Server.stop server2;
        Thread.join thread2);
    Alcotest.test_case "stats-report-hot-and-cache-economy" `Quick (fun () ->
        let dir = Temp.name "amosd-eco-stats" in
        Sys.mkdir dir 0o755;
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
          { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        let server, thread, socket = start_server ~tuner ~cache_dir:dir () in
        let stats_over_wire c =
          match Client.request c Protocol.Stats with
          | Ok (Protocol.Stats_r s) -> s
          | Ok _ -> Alcotest.fail "expected Stats_r"
          | Error msg -> Alcotest.fail msg
        in
        Client.with_conn ~attempts:50 socket (fun c ->
            let s0 = stats_over_wire c in
            Alcotest.(check int) "cold hot cache holds nothing" 0
              s0.Protocol.hot_bytes;
            (match Client.request c (tune_req gemm_text) with
            | Ok (Protocol.Plan_r _) -> ()
            | Ok _ -> Alcotest.fail "expected Plan_r"
            | Error msg -> Alcotest.fail msg);
            let s1 = stats_over_wire c in
            Alcotest.(check bool) "hot layer accounts the plan" true
              (s1.Protocol.hot_bytes > 0);
            Alcotest.(check bool) "hot layer protects tuning time" true
              (s1.Protocol.hot_tuning_seconds >= 0.);
            Alcotest.(check bool) "persistent layer accounts bytes" true
              (s1.Protocol.cache_bytes > 0);
            (* repeat hits must not grow the hot accounting: served, not
               re-admitted as fresh slots *)
            for _ = 1 to 3 do
              match Client.request c (tune_req gemm_text) with
              | Ok (Protocol.Plan_r r) ->
                  Alcotest.(check string) "served hot" "hot" r.Protocol.source
              | Ok _ -> Alcotest.fail "expected Plan_r"
              | Error msg -> Alcotest.fail msg
            done;
            let s2 = stats_over_wire c in
            Alcotest.(check int) "hot bytes stable across repeats"
              s1.Protocol.hot_bytes s2.Protocol.hot_bytes;
            Alcotest.(check int) "no retunes yet" 0
              s2.Protocol.quarantine_retunes);
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "readmission-from-cache-never-double-counts" `Quick
      (fun () ->
        (* a fingerprint bouncing between the persistent cache and the
           hot layer (restart, hot eviction, re-lookup) is one slot, not
           an accumulating series of them *)
        let dir = Temp.name "amosd-eco-readmit" in
        Sys.mkdir dir 0o755;
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
          { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        let server1, thread1, socket1 =
          start_server ~tuner ~cache_dir:dir ()
        in
        (match
           Client.with_conn ~attempts:50 socket1 (fun c ->
               Client.request c (tune_req gemm_text))
         with
        | Ok (Protocol.Plan_r _) -> ()
        | Ok _ -> Alcotest.fail "expected Plan_r"
        | Error msg -> Alcotest.fail msg);
        let baseline = (Server.stats server1).Protocol.hot_bytes in
        Server.stop server1;
        Thread.join thread1;
        (* fresh daemon, cold hot layer: every lookup promotes from the
           persistent cache into the hot layer *)
        let server2, thread2, socket2 =
          start_server ~tuner ~cache_dir:dir ()
        in
        let lookup_req =
          Protocol.Lookup
            { accel = "toy"; op = Protocol.Dsl_text gemm_text;
              budget = small_budget }
        in
        Client.with_conn ~attempts:50 socket2 (fun c ->
            for i = 1 to 3 do
              match Client.request c lookup_req with
              | Ok (Protocol.Plan_r _) -> ()
              | Ok _ -> Alcotest.fail (Printf.sprintf "lookup %d must hit" i)
              | Error msg -> Alcotest.fail msg
            done);
        Alcotest.(check int) "one slot's worth of bytes, as before restart"
          baseline
          (Server.stats server2).Protocol.hot_bytes;
        Server.stop server2;
        Thread.join thread2);
    Alcotest.test_case "idle-drain-retunes-quarantined-fingerprint" `Quick
      (fun () ->
        let dir = Temp.name "amosd-eco-retune" in
        Sys.mkdir dir 0o755;
        let calls = Atomic.make 0 in
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
          Atomic.incr calls;
          { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        (* a first daemon tunes and persists the plan *)
        let server1, thread1, socket1 =
          start_server ~tuner ~cache_dir:dir ()
        in
        (match
           Client.with_conn ~attempts:50 socket1 (fun c ->
               Client.request c (tune_req gemm_text))
         with
        | Ok (Protocol.Plan_r _) -> ()
        | Ok _ -> Alcotest.fail "expected Plan_r"
        | Error msg -> Alcotest.fail msg);
        Server.stop server1;
        Thread.join thread1;
        (* the record is corrupted on disk; fsck quarantines it *)
        Log_records.garble dir;
        let r = Plan_cache.fsck ~dir () in
        Alcotest.(check int) "entry quarantined" 1 r.Plan_cache.quarantined;
        (* a fresh daemon misses — but the lookup teaches it the spec *)
        let server2, thread2, socket2 =
          start_server ~tuner ~cache_dir:dir ()
        in
        (match
           Client.with_conn ~attempts:50 socket2 (fun c ->
               Client.request c
                 (Protocol.Lookup
                    { accel = "toy"; op = Protocol.Dsl_text gemm_text;
                      budget = small_budget }))
         with
        | Ok Protocol.Not_found_r -> ()
        | Ok _ -> Alcotest.fail "quarantined entry must miss"
        | Error msg -> Alcotest.fail msg);
        (* the idle drain re-tunes it in the background (the serve
           loop's own ticks may also fire this; either way exactly one
           retune happens) *)
        ignore (Server.drain_quarantined_once server2);
        wait_for "quarantined fingerprint re-tuned" (fun () ->
            (Server.stats server2).Protocol.quarantine_retunes = 1);
        wait_for "quarantine file removed after the fresh store" (fun () ->
            Array.for_all
              (fun f -> not (Filename.check_suffix f ".plan.quarantined"))
              (Sys.readdir dir));
        Alcotest.(check int) "exactly one extra exploration" 2
          (Atomic.get calls);
        (* the restored plan is served again without tuning *)
        (match
           Client.with_conn ~attempts:50 socket2 (fun c ->
               Client.request c
                 (Protocol.Lookup
                    { accel = "toy"; op = Protocol.Dsl_text gemm_text;
                      budget = small_budget }))
         with
        | Ok (Protocol.Plan_r _) -> ()
        | Ok _ -> Alcotest.fail "restored entry must hit"
        | Error msg -> Alcotest.fail msg);
        Alcotest.(check int) "no further exploration" 2 (Atomic.get calls);
        (* a second drain pass finds nothing to do *)
        Alcotest.(check bool) "drain is idempotent" false
          (Server.drain_quarantined_once server2);
        Server.stop server2;
        Thread.join thread2);
    Alcotest.test_case "migrate-tune-stores-provenance" `Quick (fun () ->
        (* a Migrate_tune stores what [tune --migrate-from] stores: the
           plan tuned from migrated seeds names its source.  The tuner
           returns the first seed, so only migrated seeds can make the
           stored plan spatial *)
        let text = "for {i:32, j:32} for {r:32r}: out[i,j] += a[i,r] * b[r,j]" in
        let op = Amos_ir.Dsl.parse_exn ~name:"mig" text in
        let v100 = Accelerator.v100 () and a100 = Accelerator.a100 () in
        let cache_dir = Temp.name "amosd-migrate" in
        let m = List.hd (Compiler.mappings v100 op) in
        Plan_cache.store
          (Plan_cache.create ~dir:cache_dir ())
          ~accel:v100 ~op ~budget:small_budget
          (Plan_cache.Spatial (m, Schedule.default m));
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds ~progress:_ =
          match seeds with
          | (c : Explore.candidate) :: _ ->
              {
                Server.value =
                  Plan_cache.Spatial (c.Explore.mapping, c.Explore.schedule);
                evaluations = 1;
              }
          | [] -> { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        let server, thread, socket = start_server ~tuner ~cache_dir () in
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.request c
                 (Protocol.Migrate_tune
                    {
                      accel = "a100";
                      op = Protocol.Dsl_text text;
                      budget = small_budget;
                    }))
         with
        | Ok (Protocol.Plan_r _) -> ()
        | Ok _ -> Alcotest.fail "expected Plan_r"
        | Error msg -> Alcotest.fail msg);
        Server.stop server;
        Thread.join thread;
        let stored =
          List.assoc
            (Fingerprint.key ~accel:a100 ~op ~budget:small_budget)
            (Log_records.entries cache_dir)
        in
        match Plan_io.provenance stored with
        | Some p ->
            Alcotest.(check string) "source fingerprint"
              (Fingerprint.key ~accel:v100 ~op ~budget:small_budget)
              p.Plan_io.source_fingerprint;
            Alcotest.(check string) "source accel" v100.Accelerator.name
              p.Plan_io.source_accel
        | None -> Alcotest.fail "the migrated plan was stored without provenance");
    Alcotest.test_case "default-tuner-serves-validating-plan" `Quick
      (fun () ->
        (* end to end with the real tuner: the wire plan must re-bind
           and re-validate on the client side *)
        let server, thread, socket = start_server () in
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.request_retry c (tune_req gemm_text))
         with
        | Ok (Protocol.Plan_r r) -> (
            match r.Protocol.plan with
            | Protocol.Wire_scalar -> ()
            | Protocol.Wire_spatial text -> (
                let op = Amos_ir.Dsl.parse_exn ~name:"wire-op" gemm_text in
                let accel = Option.get (Accelerator.by_name "toy") in
                match Plan_io.load accel op text with
                | Some (m, sched) ->
                    Alcotest.(check bool) "plan validates" true
                      (Schedule.validate m sched)
                | None -> Alcotest.fail "wire plan failed to re-bind"))
        | Ok _ -> Alcotest.fail "expected Plan_r"
        | Error msg -> Alcotest.fail msg);
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.request c
                 (Protocol.Tune
                    {
                      accel = "warp9";
                      op = Protocol.Dsl_text gemm_text;
                      budget = small_budget;
                    }))
         with
        | Ok (Protocol.Error_r msg) ->
            Alcotest.(check bool) "typed error names the accel" true
              (String.length msg > 0)
        | Ok _ -> Alcotest.fail "unknown accel must be a typed error"
        | Error msg -> Alcotest.fail msg);
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "request-split-across-the-receive-timeout" `Quick
      (fun () ->
        (* the daemon reads with a 0.5 s receive timeout and re-enters
           its reader on each expiry; a frame whose second half arrives
           after one must still parse, wherever it was split *)
        let server, thread, socket = start_server () in
        let payload = Protocol.encode_request Protocol.Health in
        let frame = Printf.sprintf "%d\n%s\n" (String.length payload) payload in
        List.iter
          (fun split ->
            let fd = Transport.connect (Transport.Unix_path socket) in
            Fun.protect
              ~finally:(fun () ->
                try Unix.close fd with Unix.Unix_error _ -> ())
              (fun () ->
                Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.;
                write_raw fd (String.sub frame 0 split);
                Thread.delay 0.8;
                write_raw fd
                  (String.sub frame split (String.length frame - split));
                match Protocol.read_frame (Protocol.reader fd) with
                | Ok p -> (
                    match Protocol.decode_response p with
                    | Ok (Protocol.Ok_r _) -> ()
                    | _ ->
                        Alcotest.failf "split after byte %d: answered %s"
                          split p)
                | Error `Eof ->
                    Alcotest.failf "split after byte %d: connection dropped"
                      split
                | Error (`Bad m) -> Alcotest.fail m))
          [ 1; 10 ];
        Server.stop server;
        Thread.join thread);
  ]

(* --- streaming, cancellation, deadline admission ---------------------- *)

let stream_req ?(text = gemm_text) () = tune_req text

(* collect a stream on its own thread: (thread, frames-so-far, result) *)
let stream_in_thread socket ~request_id req =
  let frames = ref [] in
  let result = ref (Error "never ran") in
  let thread =
    Thread.create
      (fun () ->
        result :=
          Client.with_conn ~attempts:50 socket (fun c ->
              Client.request_stream ~request_id
                ~on_progress:(fun p -> frames := p :: !frames)
                c req))
      ()
  in
  (thread, frames, result)

let stream_tests =
  [
    Alcotest.test_case "streaming-tune-interleaves-progress" `Quick (fun () ->
        (* a tuner that reports three generations: the streaming client
           must see all three frames, in order, before the final plan *)
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress =
          (match progress with
          | Some f ->
              List.iter
                (fun g ->
                  f
                    {
                      Explore.pr_generation = g;
                      pr_best_predicted = 0.001 *. float_of_int g;
                      pr_best_measured = infinity;
                      pr_evaluations = 4 * g;
                    })
                [ 1; 2; 3 ]
          | None -> ());
          { Server.value = Plan_cache.Scalar; evaluations = 12 }
        in
        let server, thread, socket = start_server ~tuner () in
        let t, frames, result = stream_in_thread socket ~request_id:1 (stream_req ()) in
        Thread.join t;
        (match !result with
        | Ok (Protocol.Plan_r r) ->
            Alcotest.(check string) "fresh tune" "tuned" r.Protocol.source
        | Ok _ -> Alcotest.fail "expected Plan_r terminal frame"
        | Error msg -> Alcotest.fail msg);
        let seen = List.rev !frames in
        Alcotest.(check (list int))
          "every generation streamed, in order" [ 1; 2; 3 ]
          (List.map (fun p -> p.Protocol.pg_generation) seen);
        List.iter
          (fun p ->
            Alcotest.(check bool) "predicted latency present" true
              (p.Protocol.pg_best_predicted <> None);
            (* infinity = no measurement yet: absent on the wire *)
            Alcotest.(check (option (float 1e-9))) "unknown measured absent"
              None p.Protocol.pg_best_measured)
          seen;
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "hot-hit-streams-nothing" `Quick (fun () ->
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress =
          Option.iter
            (fun f ->
              f
                {
                  Explore.pr_generation = 1;
                  pr_best_predicted = 0.002;
                  pr_best_measured = 0.002;
                  pr_evaluations = 2;
                })
            progress;
          { Server.value = Plan_cache.Scalar; evaluations = 2 }
        in
        let server, thread, socket = start_server ~tuner () in
        (* warm the hot cache, then stream the identical request *)
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.request c (stream_req ()))
         with
        | Ok (Protocol.Plan_r _) -> ()
        | _ -> Alcotest.fail "warmup tune must serve a plan");
        let t, frames, result = stream_in_thread socket ~request_id:2 (stream_req ()) in
        Thread.join t;
        (match !result with
        | Ok (Protocol.Plan_r r) ->
            Alcotest.(check string) "served hot" "hot" r.Protocol.source
        | Ok _ -> Alcotest.fail "expected Plan_r"
        | Error msg -> Alcotest.fail msg);
        Alcotest.(check int) "a cache hit streams no frames" 0
          (List.length !frames);
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "cancel-detaches-waiter-not-flight" `Quick (fun () ->
        let tuner, gate, calls = gated_tuner () in
        let server, thread, socket = start_server ~tuner () in
        (* A streams and leads; the tuner parks on the gate *)
        let ta, _, ra = stream_in_thread socket ~request_id:42 (stream_req ()) in
        wait_for "leader in flight" (fun () ->
            (Server.stats server).Protocol.in_flight = 1);
        (* B joins the same fingerprint without streaming *)
        let tb, rb = request_in_thread socket (stream_req ()) in
        wait_for "joiner deduped" (fun () ->
            (Server.stats server).Protocol.deduped = 1);
        (* a third connection cancels A's stream by id *)
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.cancel c ~request_id:42)
         with
        | Ok (Protocol.Ok_r _) -> ()
        | Ok _ -> Alcotest.fail "cancel of a live stream must be Ok_r"
        | Error msg -> Alcotest.fail msg);
        Thread.join ta;
        (match !ra with
        | Ok Protocol.Cancelled_r -> ()
        | Ok _ -> Alcotest.fail "cancelled stream must end with Cancelled_r"
        | Error msg -> Alcotest.fail msg);
        (* the shared flight is still running for B — releasing the gate
           resolves it with a real plan, not an error *)
        Alcotest.(check int) "flight survives the cancel" 1
          (Server.stats server).Protocol.in_flight;
        Semaphore.Counting.release gate;
        Thread.join tb;
        let b = plan_of rb "co-waiter" in
        Alcotest.(check string) "co-waiter still served" "deduped"
          b.Protocol.source;
        Alcotest.(check int) "tuner ran once" 1 (Atomic.get calls);
        let s = Server.stats server in
        Alcotest.(check int) "stats counts the cancel" 1 s.Protocol.cancels;
        (* cancelling a finished (unregistered) stream is a typed miss *)
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.cancel c ~request_id:42)
         with
        | Ok Protocol.Not_found_r -> ()
        | Ok _ -> Alcotest.fail "stale cancel must be Not_found_r"
        | Error msg -> Alcotest.fail msg);
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "last-waiter-cancel-aborts-exploration" `Quick
      (fun () ->
        let observed_abort = Atomic.make false in
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress =
          (* report a generation every 10 ms like [Explore.tune] does,
             bounded so a missed cancel cannot hang the suite: once the
             last waiter has detached, the daemon's hook raises
             [Explore.Aborted], which the tuner lets escape *)
          let report = Option.get progress in
          for g = 1 to 500 do
            (match
               report
                 {
                   Explore.pr_generation = g;
                   pr_best_predicted = infinity;
                   pr_best_measured = infinity;
                   pr_evaluations = g;
                 }
             with
            | () -> ()
            | exception (Explore.Aborted as e) ->
                Atomic.set observed_abort true;
                raise e);
            Thread.delay 0.01
          done;
          { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        let server, thread, socket = start_server ~tuner () in
        let ta, _, ra = stream_in_thread socket ~request_id:7 (stream_req ()) in
        wait_for "tune in flight" (fun () ->
            (Server.stats server).Protocol.in_flight = 1);
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.cancel c ~request_id:7)
         with
        | Ok (Protocol.Ok_r _) -> ()
        | _ -> Alcotest.fail "cancel must land");
        Thread.join ta;
        (match !ra with
        | Ok Protocol.Cancelled_r -> ()
        | Ok _ -> Alcotest.fail "expected Cancelled_r"
        | Error msg -> Alcotest.fail msg);
        (* the sole waiter walked away: the exploration must notice and
           abort instead of tuning for nobody *)
        wait_for "exploration aborted" (fun () -> Atomic.get observed_abort);
        wait_for "flight resolved" (fun () ->
            (Server.stats server).Protocol.in_flight = 0);
        (* the daemon is healthy afterwards *)
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.request c Protocol.Health)
         with
        | Ok (Protocol.Ok_r _) -> ()
        | _ -> Alcotest.fail "daemon must stay healthy after an abort");
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "shared-request-id-cancel-reaches-the-live-stream" `Quick
      (fun () ->
        (* request ids are client-chosen, so two live streams can share
           one: the first to finish must not unregister the other *)
        let gates = [| Semaphore.Counting.make 0; Semaphore.Counting.make 0 |] in
        let tuner ~jobs:_ ~accel:_ ~op ~budget:_ ~seeds:_ ~progress =
          Option.iter
            (fun f ->
              f
                {
                  Explore.pr_generation = 1;
                  pr_best_predicted = 0.001;
                  pr_best_measured = infinity;
                  pr_evaluations = 1;
                })
            progress;
          (* one gate per operator: gemm_text's first extent is 4 *)
          let first = (List.hd op.Amos_ir.Operator.iters).Amos_ir.Iter.extent in
          Semaphore.Counting.acquire gates.(if first = 4 then 0 else 1);
          { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        let server, thread, socket = start_server ~tuner ~workers:2 () in
        let t1, frames1, r1 = stream_in_thread socket ~request_id:7 (stream_req ()) in
        wait_for "first stream's progress" (fun () -> !frames1 <> []);
        let t2, frames2, r2 =
          stream_in_thread socket ~request_id:7 (stream_req ~text:gemm2_text ())
        in
        wait_for "second stream's progress" (fun () -> !frames2 <> []);
        Semaphore.Counting.release gates.(0);
        Thread.join t1;
        ignore (plan_of r1 "first stream");
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.cancel c ~request_id:7)
         with
        | Ok (Protocol.Ok_r _) -> ()
        | Ok _ -> Alcotest.fail "cancel must reach the stream still live"
        | Error msg -> Alcotest.fail msg);
        Thread.join t2;
        (match !r2 with
        | Ok Protocol.Cancelled_r -> ()
        | Ok _ -> Alcotest.fail "second stream must end with Cancelled_r"
        | Error msg -> Alcotest.fail msg);
        Semaphore.Counting.release gates.(1);
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "doomed-deadline-typed-hint-never-enqueued" `Quick
      (fun () ->
        (* virtual clock: the tuner "takes" 5 virtual seconds, so after
           one completion the admission EWMA projects 5s of wait per
           queued task — with zero real sleeping anywhere *)
        let clock = Clock.virtual_ () in
        let gate = Semaphore.Counting.make 0 in
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
          Semaphore.Counting.acquire gate;
          Clock.advance clock 5.0;
          { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        let server, thread, socket =
          start_server ~tuner ~clock ~workers:1 ()
        in
        (* first tune completes instantly (in real time) and seeds the
           EWMA with its 5 virtual seconds *)
        Semaphore.Counting.release gate;
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.request c (stream_req ()))
         with
        | Ok (Protocol.Plan_r _) -> ()
        | _ -> Alcotest.fail "seeding tune must serve a plan");
        (* occupy the only worker *)
        let tb, rb = request_in_thread socket (stream_req ~text:gemm2_text ()) in
        wait_for "worker occupied" (fun () ->
            (Server.stats server).Protocol.in_flight = 1);
        (* a 100 ms budget against a 5 s projection: typed hint, and the
           request never touches the queue *)
        (match
           Client.with_conn ~attempts:50 socket (fun c ->
               Client.request ~deadline_ms:100 c
                 (stream_req ~text:gemm3_text ()))
         with
        | Ok (Protocol.Deadline_hint_r { projected_wait_s }) ->
            Alcotest.(check (float 1e-6)) "hint carries the projection" 5.0
              projected_wait_s
        | Ok r ->
            Alcotest.fail
              ("expected Deadline_hint_r, got " ^ Protocol.encode_response r)
        | Error msg -> Alcotest.fail msg);
        let s = Server.stats server in
        Alcotest.(check int) "stats counts the rejection" 1
          s.Protocol.deadline_rejections;
        Alcotest.(check int) "nothing was enqueued" 1 s.Protocol.in_flight;
        (* an ample budget is admitted and eventually served *)
        Semaphore.Counting.release gate;
        Thread.join tb;
        ignore (plan_of rb "occupant");
        Server.stop server;
        Thread.join thread);
  ]


(* --- request memo ----------------------------------------------------- *)

module Suites = Amos_workloads.Suites
module Resnet = Amos_workloads.Resnet

let gmv n = List.nth (Suites.configs_per_kind ~batch:1 Amos_workloads.Ops.GMV) n

(* a real plan that depends on the operator, at the cost of one mapping
   generation: the first mapping on the primary intrinsic, default
   schedule *)
let first_mapping ~accel ~op =
  match Mapping_gen.generate_op op (Accelerator.primary_intrinsic accel) with
  | matching :: _ ->
      let m = Mapping.make matching in
      Plan_cache.Spatial (m, Schedule.default m)
  | [] -> Plan_cache.Scalar

let first_mapping_tuner calls ~jobs:_ ~accel ~op ~budget:_ ~seeds:_
    ~progress:_ =
  Atomic.incr calls;
  { Server.value = first_mapping ~accel ~op; evaluations = 1 }

let wire_of = function
  | Plan_cache.Scalar -> Protocol.Wire_scalar
  | Plan_cache.Spatial (m, s) -> Protocol.Wire_spatial (Plan_io.save m s)

let toy () = Option.get (Accelerator.by_name "toy")

let request socket req =
  match
    Client.with_conn ~attempts:50 socket (fun c -> Client.request c req)
  with
  | Ok r -> r
  | Error msg -> Alcotest.fail msg

let expect_plan what = function
  | Protocol.Plan_r r -> r
  | _ -> Alcotest.fail (what ^ ": expected Plan_r")

let memo_tests =
  [
    Alcotest.test_case "repeated-specs-serve-the-in-process-fingerprint"
      `Quick (fun () ->
        let calls = Atomic.make 0 in
        let server, thread, socket =
          start_server ~tuner:(first_mapping_tuner calls) ()
        in
        let cases =
          [
            ( "dsl",
              Protocol.Dsl_text gemm_text,
              Amos_ir.Dsl.parse_exn ~name:"in-process" gemm_text );
            ( "kind",
              Protocol.Kind { kind = "gmv"; batch = 1; index = 0 },
              gmv 0 );
            ( "layer",
              Protocol.Layer "c10",
              Resnet.config (Resnet.by_label "C10") );
          ]
        in
        List.iter
          (fun (what, op_spec, op) ->
            let accel = toy () in
            let fingerprint = Fingerprint.key ~accel ~op ~budget:small_budget in
            let plan = wire_of (first_mapping ~accel ~op) in
            let tune () =
              expect_plan what
                (request socket
                   (Protocol.Tune
                      { accel = "toy"; op = op_spec; budget = small_budget }))
            in
            let first = tune () in
            let second = tune () in
            let looked_up =
              expect_plan what
                (request socket
                   (Protocol.Lookup
                      { accel = "toy"; op = op_spec; budget = small_budget }))
            in
            List.iter
              (fun (r : Protocol.tune_reply) ->
                Alcotest.(check string) (what ^ ": fingerprint") fingerprint
                  r.Protocol.fingerprint;
                Alcotest.(check bool) (what ^ ": plan") true
                  (r.Protocol.plan = plan))
              [ first; second; looked_up ];
            Alcotest.(check (list string)) (what ^ ": sources")
              [ "tuned"; "hot"; "hot" ]
              [ first.Protocol.source; second.Protocol.source;
                looked_up.Protocol.source ])
          cases;
        Alcotest.(check int) "one tune per spec" 3 (Atomic.get calls);
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "failing-specs-are-never-memoized" `Quick (fun () ->
        let calls = Atomic.make 0 in
        let server, thread, socket =
          start_server ~tuner:(first_mapping_tuner calls) ()
        in
        let failing =
          [
            ( Protocol.Lookup
                { accel = "warp9"; op = Protocol.Dsl_text gemm_text;
                  budget = small_budget },
              "unknown accelerator warp9" );
            ( tune_req "for {i:4} garbage",
              "operator DSL" );
            ( Protocol.Tune
                { accel = "toy";
                  op = Protocol.Kind { kind = "GMM"; batch = 1; index = -1 };
                  budget = small_budget },
              "no config -1 for kind GMM" );
            ( Protocol.Tune
                { accel = "toy";
                  op = Protocol.Kind { kind = "GMM"; batch = 1; index = 1000 };
                  budget = small_budget },
              "no config 1000 for kind GMM" );
            ( Protocol.Lookup
                { accel = "toy"; op = Protocol.Layer "Z9";
                  budget = small_budget },
              "unknown layer Z9" );
          ]
        in
        List.iter
          (fun (req, want) ->
            for attempt = 1 to 2 do
              match request socket req with
              | Protocol.Error_r msg ->
                  let n = min (String.length msg) (String.length want) in
                  Alcotest.(check string)
                    (Printf.sprintf "attempt %d names the fault" attempt)
                    want (String.sub msg 0 n)
              | _ -> Alcotest.fail (want ^ ": expected Error_r")
            done)
          failing;
        Alcotest.(check int) "nothing tuned" 0 (Atomic.get calls);
        (* the daemon still serves a valid spec *)
        let r = expect_plan "valid" (request socket (tune_req gemm_text)) in
        Alcotest.(check string) "valid spec's fingerprint"
          (Fingerprint.key ~accel:(toy ())
             ~op:(Amos_ir.Dsl.parse_exn ~name:"x" gemm_text)
             ~budget:small_budget)
          r.Protocol.fingerprint;
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "specs-past-the-memo-bound-are-still-served" `Quick
      (fun () ->
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
          { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        let server, thread, socket =
          start_server ~tuner ~hot_capacity:1024 ()
        in
        (* 540 distinct specs, more than the 512 the memo admits *)
        let texts =
          List.concat_map
            (fun i ->
              List.init 20 (fun j ->
                  Printf.sprintf
                    "for {i:%d, j:%d} for {r:4r}: out[i,j] += a[i,r] * b[r,j]"
                    (i + 1) (j + 1)))
            (List.init 27 Fun.id)
        in
        let accel = toy () in
        let expected =
          List.map
            (fun text ->
              ( text,
                Fingerprint.key ~accel
                  ~op:(Amos_ir.Dsl.parse_exn ~name:"x" text)
                  ~budget:small_budget ))
            texts
        in
        Client.with_conn ~attempts:50 socket (fun c ->
            List.iter
              (fun req_of ->
                List.iter
                  (fun (text, fingerprint) ->
                    match Client.request c (req_of text) with
                    | Ok (Protocol.Plan_r r) ->
                        if r.Protocol.fingerprint <> fingerprint then
                          Alcotest.failf "%s: fingerprint %s, want %s" text
                            r.Protocol.fingerprint fingerprint
                    | Ok _ -> Alcotest.fail (text ^ ": expected Plan_r")
                    | Error msg -> Alcotest.fail msg)
                  expected)
              [
                tune_req;
                (fun text ->
                  Protocol.Lookup
                    { accel = "toy"; op = Protocol.Dsl_text text;
                      budget = small_budget });
              ];
            Ok ())
        |> Result.iter_error Alcotest.fail;
        Alcotest.(check int) "one tune per spec" (List.length texts)
          (Server.stats server).Protocol.tunes;
        Server.stop server;
        Thread.join thread);
    Alcotest.test_case "idle-drain-retunes-a-kind-only-fingerprint" `Quick
      (fun () ->
        let dir = Temp.name "amosd-kind-retune" in
        Sys.mkdir dir 0o755;
        let calls = Atomic.make 0 in
        let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
          Atomic.incr calls;
          { Server.value = Plan_cache.Scalar; evaluations = 1 }
        in
        let kind_req make =
          make ("toy", Protocol.Kind { kind = "gmv"; batch = 1; index = 2 })
        in
        let tune (accel, op) =
          Protocol.Tune { accel; op; budget = small_budget }
        in
        let lookup (accel, op) =
          Protocol.Lookup { accel; op; budget = small_budget }
        in
        let server1, thread1, socket1 = start_server ~tuner ~cache_dir:dir () in
        ignore (expect_plan "first tune" (request socket1 (kind_req tune)));
        Server.stop server1;
        Thread.join thread1;
        Log_records.garble dir;
        Alcotest.(check int) "entry quarantined" 1
          (Plan_cache.fsck ~dir ()).Plan_cache.quarantined;
        (* the fresh daemon only ever sees the operator as a Kind spec *)
        let server2, thread2, socket2 = start_server ~tuner ~cache_dir:dir () in
        (match request socket2 (kind_req lookup) with
        | Protocol.Not_found_r -> ()
        | _ -> Alcotest.fail "quarantined entry must miss");
        ignore (Server.drain_quarantined_once server2);
        wait_for "kind-only fingerprint re-tuned" (fun () ->
            (Server.stats server2).Protocol.quarantine_retunes = 1);
        let r = expect_plan "restored" (request socket2 (kind_req lookup)) in
        Alcotest.(check string) "restored under the in-process fingerprint"
          (Fingerprint.key ~accel:(toy ())
             ~op:(gmv 2)
             ~budget:small_budget)
          r.Protocol.fingerprint;
        Alcotest.(check int) "exactly one extra exploration" 2 (Atomic.get calls);
        Server.stop server2;
        Thread.join thread2);
  ]

let suites =
  [
    ("server.protocol", codec_tests);
    ("server.framing", framing_tests);
    ("server.primitives", primitive_tests);
    ("server.daemon", daemon_tests);
    ("server.stream", stream_tests);
    ("server.memo", memo_tests);
  ]
