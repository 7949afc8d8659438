(* The plan fleet: consistent-hash ring properties (determinism across
   member orderings, bounded churn on member removal), the per-peer
   circuit breaker's state machine on a virtual clock (open backoff
   growth, half-open single-probe claim, latency-EWMA tripping), the
   TCP handshake's typed denials (bad token, wrong protocol version,
   request-before-hello, silent-client deadline), cross-daemon
   forwarding with hot-cache re-admission, the owner-down local-tune
   fallback, and the journal format version stamp. *)

open Amos
module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Clock = Amos_service.Clock
module Ops = Amos_workloads.Ops
module Protocol = Amos_server.Protocol
module Server = Amos_server.Server
module Client = Amos_server.Client
module Transport = Amos_server.Transport
module Ring = Amos_fleet.Ring
module Fleet = Amos_fleet.Fleet
module Breaker = Amos_fleet.Breaker

let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> 421)
  | None -> 421

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t

(* --- ring ----------------------------------------------------------- *)

let keys n = List.init n (fun i -> Printf.sprintf "fingerprint-%d" i)

let ring_tests =
  [
    Alcotest.test_case "empty-ring-owns-nothing" `Quick (fun () ->
        let ring = Ring.create [] in
        Alcotest.(check bool) "empty" true (Ring.is_empty ring);
        Alcotest.(check (option string)) "no owner" None (Ring.owner ring "x"));
    Alcotest.test_case "single-member-owns-everything" `Quick (fun () ->
        let ring = Ring.create [ "10.0.0.1:7000" ] in
        List.iter
          (fun k ->
            Alcotest.(check (option string))
              k
              (Some "10.0.0.1:7000")
              (Ring.owner ring k))
          (keys 50));
    Alcotest.test_case "order-and-duplicates-are-irrelevant" `Quick (fun () ->
        let a = Ring.create [ "h1:1"; "h2:2"; "h3:3" ] in
        let b = Ring.create [ "h3:3"; "h1:1"; "h2:2"; "h1:1" ] in
        Alcotest.(check (list string))
          "same members" (Ring.members a) (Ring.members b);
        List.iter
          (fun k ->
            Alcotest.(check (option string))
              k (Ring.owner a k) (Ring.owner b k))
          (keys 200));
    Alcotest.test_case "ownership-is-roughly-balanced" `Quick (fun () ->
        let members = [ "h1:1"; "h2:2"; "h3:3" ] in
        let ring = Ring.create members in
        let counts = Hashtbl.create 3 in
        List.iter
          (fun k ->
            let o = Option.get (Ring.owner ring k) in
            Hashtbl.replace counts o
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
          (keys 1200);
        List.iter
          (fun m ->
            let n = Option.value ~default:0 (Hashtbl.find_opt counts m) in
            if n < 120 then
              Alcotest.failf "member %s owns only %d/1200 keys" m n)
          members);
  ]

(* random small fleets: n members with distinct addresses, plus a seed
   for the key set, so the properties range over many ring layouts *)
let gen_fleet =
  QCheck.Gen.(
    int_range 2 6 >>= fun n ->
    int_range 0 1000 >>= fun base ->
    return (List.init n (fun i -> Printf.sprintf "10.0.%d.%d:%d" (i + 1) base (7000 + i))))

let prop_ring_deterministic =
  QCheck.Test.make ~count:100
    ~name:"ring: ownership is a pure function of the member set"
    (QCheck.make gen_fleet) (fun members ->
      let a = Ring.create members in
      let b = Ring.create (List.rev members @ members) in
      List.for_all (fun k -> Ring.owner a k = Ring.owner b k) (keys 100))

let prop_ring_bounded_churn =
  QCheck.Test.make ~count:100
    ~name:"ring: removing one member remaps only that member's keys"
    (QCheck.make gen_fleet) (fun members ->
      let removed = List.hd members in
      let survivors = List.tl members in
      let before = Ring.create members in
      let after = Ring.create survivors in
      List.for_all
        (fun k ->
          match Ring.owner before k with
          | Some o when o = removed ->
              (* must land on some survivor *)
              Option.is_some (Ring.owner after k)
          | owner -> Ring.owner after k = owner)
        (keys 200))

(* --- circuit breaker ------------------------------------------------ *)

let state_name = function
  | Breaker.Closed -> "closed"
  | Breaker.Open -> "open"
  | Breaker.Half_open -> "half-open"

let check_state name expected br peer =
  Alcotest.(check string) name (state_name expected)
    (state_name (Breaker.state br peer))

let breaker_tests =
  [
    Alcotest.test_case "failure-opens-then-backoff-expires" `Quick (fun () ->
        let clock = Clock.virtual_ () in
        let br = Breaker.create ~clock () in
        Alcotest.(check bool) "fresh peer available" true
          (Breaker.available br "p");
        check_state "fresh peer closed" Breaker.Closed br "p";
        Breaker.failure br "p";
        check_state "open right after failure" Breaker.Open br "p";
        Alcotest.(check bool) "blocked right after failure" false
          (Breaker.available br "p");
        Clock.advance clock 1.;
        (* the window expired: half-open, one probe admitted *)
        check_state "half-open after base backoff" Breaker.Half_open br "p";
        Alcotest.(check bool) "base backoff expired" true
          (Breaker.available br "p"));
    Alcotest.test_case "backoff-doubles-and-caps" `Quick (fun () ->
        let clock = Clock.virtual_ () in
        let br = Breaker.create ~clock () in
        Breaker.failure br "p";
        Clock.advance clock 1.;
        Breaker.failure br "p";
        (* second failure backs off 2s, not 1s *)
        Clock.advance clock 1.;
        Alcotest.(check bool) "still blocked after 1s" false
          (Breaker.available br "p");
        Clock.advance clock 1.;
        Alcotest.(check bool) "unblocked after 2s" true
          (Breaker.available br "p");
        (* a long outage saturates at the cap instead of overflowing *)
        for _ = 1 to 80 do
          Breaker.failure br "p"
        done;
        let until = Option.get (Breaker.blocked_until br "p") in
        Alcotest.(check bool) "capped at 30s" true
          (until -. Clock.now clock <= 30.));
    Alcotest.test_case "half-open-admits-exactly-one-probe" `Quick (fun () ->
        let clock = Clock.virtual_ () in
        let br = Breaker.create ~clock () in
        Breaker.failure br "p";
        Clock.advance clock 1.;
        Alcotest.(check bool) "first caller claims the probe" true
          (Breaker.available br "p");
        Alcotest.(check bool) "racing caller is refused" false
          (Breaker.available br "p");
        Alcotest.(check bool) "and stays refused until the probe resolves"
          false
          (Breaker.available br "p"));
    Alcotest.test_case "healthy-probe-closes-and-forgets" `Quick (fun () ->
        let clock = Clock.virtual_ () in
        let br = Breaker.create ~clock () in
        Breaker.failure br "p";
        Breaker.failure br "p";
        Clock.advance clock 2.;
        Alcotest.(check bool) "probe admitted" true (Breaker.available br "p");
        Breaker.success br "p" ~latency_s:0.01;
        check_state "probe success closes" Breaker.Closed br "p";
        Alcotest.(check int) "history forgotten" 0 (Breaker.failures br "p");
        Alcotest.(check bool) "requests flow again" true
          (Breaker.available br "p"));
    Alcotest.test_case "failed-probe-reopens-with-doubled-window" `Quick
      (fun () ->
        let clock = Clock.virtual_ () in
        let br = Breaker.create ~clock () in
        Breaker.failure br "p";
        Clock.advance clock 1.;
        Alcotest.(check bool) "probe admitted" true (Breaker.available br "p");
        Breaker.failure br "p";
        check_state "probe failure reopens" Breaker.Open br "p";
        let until = Option.get (Breaker.blocked_until br "p") in
        (* second consecutive trip: the window doubled from 1s to 2s *)
        Alcotest.(check (float 0.001)) "window doubled" 2.
          (until -. Clock.now clock);
        Clock.advance clock 1.;
        Alcotest.(check bool) "still blocked inside the doubled window" false
          (Breaker.available br "p"));
    Alcotest.test_case "slow-but-alive-owner-trips-on-latency" `Quick
      (fun () ->
        let clock = Clock.virtual_ () in
        let br = Breaker.create ~clock ~latency_threshold_s:0.5 () in
        Breaker.success br "p" ~latency_s:0.01;
        check_state "fast answers keep it closed" Breaker.Closed br "p";
        (* a stalled owner's first slow answer seeds the EWMA above the
           threshold: the breaker must trip within that one window *)
        Breaker.success br "p" ~latency_s:8.;
        check_state "slow answer trips" Breaker.Open br "p";
        Alcotest.(check bool) "skipped while open" false
          (Breaker.available br "p");
        (* EWMA decays under fast probes until the peer counts healthy *)
        Clock.advance clock 1.;
        Alcotest.(check bool) "probe admitted" true (Breaker.available br "p");
        let rec drain n =
          if n > 0 && Breaker.state br "p" <> Breaker.Closed then begin
            Breaker.success br "p" ~latency_s:0.01;
            Clock.advance clock 30.;
            ignore (Breaker.available br "p");
            drain (n - 1)
          end
        in
        Breaker.success br "p" ~latency_s:0.01;
        drain 20;
        check_state "fast probes eventually close it" Breaker.Closed br "p");
  ]

(* --- TCP handshake --------------------------------------------------- *)

let instant_tuner () =
  let calls = Atomic.make 0 in
  let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
    Atomic.incr calls;
    { Server.value = Plan_cache.Scalar; evaluations = 1 }
  in
  (tuner, calls)

let start_tcp_server ?tuner ?router ?(token = "sesame")
    ?(handshake_timeout_s = 5.) () =
  let server =
    Server.create ?tuner ?router
      {
        (Server.default_config ~socket_path:"unused") with
        Server.socket_path = None;
        tcp = Some ("127.0.0.1", 0);
        auth_token = Some token;
        handshake_timeout_s;
        workers = 1;
        queue_capacity = 4;
        hot_capacity = 16;
      }
  in
  let thread = Thread.create Server.serve server in
  let port =
    match Server.tcp_port server with
    | Some p -> p
    | None -> Alcotest.fail "server bound no TCP port"
  in
  (server, thread, port)

let tcp port = Transport.Tcp { host = "127.0.0.1"; port }

let shutdown_tcp server thread =
  Server.stop server;
  Thread.join thread

(* raw connection: drive the handshake frames by hand to probe the
   denial paths the [Client] module refuses to produce *)
let raw_roundtrip port frame =
  let fd = Transport.connect (tcp port) in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      (match frame with Some f -> Protocol.write_frame fd f | None -> ());
      match Protocol.read_frame (Protocol.reader fd) with
      | Ok payload -> Protocol.decode_hello_reply payload
      | Error `Eof -> Error "eof"
      | Error (`Bad msg) -> Error msg)

let check_denied name needle = function
  | Ok (Protocol.Hello_denied reason) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S (got %S)" name needle reason)
        true
        (try
           ignore (Str.search_forward (Str.regexp_string needle) reason 0);
           true
         with Not_found -> false)
  | Ok Protocol.Hello_ok -> Alcotest.fail (name ^ ": unexpectedly accepted")
  | Error msg -> Alcotest.fail (name ^ ": " ^ msg)

let handshake_tests =
  [
    Alcotest.test_case "good-token-serves-requests" `Quick (fun () ->
        let server, thread, port = start_tcp_server () in
        (match
           Client.with_endpoint ~attempts:50 ~token:"sesame" (tcp port)
             (fun c -> Client.request c Protocol.Health)
         with
        | Ok (Protocol.Ok_r _) -> ()
        | Ok _ -> Alcotest.fail "expected Ok_r"
        | Error msg -> Alcotest.fail msg);
        shutdown_tcp server thread);
    Alcotest.test_case "bad-token-denied-and-counted" `Quick (fun () ->
        let server, thread, port = start_tcp_server () in
        (match
           Client.with_endpoint ~attempts:3 ~token:"open says me" (tcp port)
             (fun c -> Client.request c Protocol.Health)
         with
        | exception Client.Denied reason ->
            Alcotest.(check bool)
              (Printf.sprintf "denial mentions auth (got %S)" reason)
              true
              (try
                 ignore (Str.search_forward (Str.regexp_string "auth") reason 0);
                 true
               with Not_found -> false)
        | Ok _ | Error _ -> Alcotest.fail "bad token must raise Denied");
        Alcotest.(check bool) "rejection counted" true
          ((Server.stats server).Protocol.auth_rejections >= 1);
        shutdown_tcp server thread);
    Alcotest.test_case "version-mismatch-denied-typed" `Quick (fun () ->
        let server, thread, port = start_tcp_server () in
        let frame =
          "{\"v\": 99, \"type\": \"hello\", \"token\": \"sesame\", \
           \"origin\": \"client\"}"
        in
        check_denied "version denial" "version" (raw_roundtrip port (Some frame));
        shutdown_tcp server thread);
    Alcotest.test_case "request-before-hello-denied" `Quick (fun () ->
        let server, thread, port = start_tcp_server () in
        let frame = Protocol.encode_request Protocol.Health in
        check_denied "hello-first denial" "handshake"
          (raw_roundtrip port (Some frame));
        shutdown_tcp server thread);
    Alcotest.test_case "silent-client-hits-the-deadline" `Quick (fun () ->
        let server, thread, port =
          start_tcp_server ~handshake_timeout_s:0.2 ()
        in
        let t0 = Unix.gettimeofday () in
        check_denied "deadline denial" "deadline" (raw_roundtrip port None);
        Alcotest.(check bool) "denied promptly, not hung" true
          (Unix.gettimeofday () -. t0 < 5.);
        shutdown_tcp server thread);
  ]

(* --- cross-daemon forwarding ----------------------------------------- *)

let small_budget =
  { Fingerprint.population = 2; generations = 1; measure_top = 1; seed = 7 }

let gemm_text m =
  Printf.sprintf "for {i:%d, j:8} for {r:8r}: out[i,j] += a[i,r] * b[r,j]" m

(* gemm variants whose fingerprints the ring assigns to [owner]; the
   scan is deterministic, so the test always exercises a true forward *)
let owned_by fleet owner n =
  let accel = Option.get (Accelerator.by_name "toy") in
  let rec scan m acc =
    if List.length acc >= n then List.rev acc
    else
      let text = gemm_text m in
      let op = Amos_ir.Dsl.parse_exn ~name:"wire-op" text in
      let fp = Fingerprint.key ~accel ~op ~budget:small_budget in
      scan (m + 4) (if Fleet.owner fleet fp = Some owner then text :: acc else acc)
  in
  scan 4 []

let tune_req text =
  Protocol.Tune
    { accel = "toy"; op = Protocol.Dsl_text text; budget = small_budget }

let lookup_req text =
  Protocol.Lookup
    { accel = "toy"; op = Protocol.Dsl_text text; budget = small_budget }

let plan_via port ~token req =
  match
    Client.with_endpoint ~attempts:50 ~token (tcp port) (fun c ->
        Client.request_retry c req)
  with
  | Ok (Protocol.Plan_r r) -> r
  | Ok Protocol.Not_found_r -> Alcotest.fail "unexpected Not_found"
  | Ok _ -> Alcotest.fail "expected Plan_r"
  | Error msg -> Alcotest.fail msg

let start_pair () =
  let tuner_a, calls_a = instant_tuner () in
  let tuner_b, calls_b = instant_tuner () in
  let server_a, thread_a, port_a = start_tcp_server ~tuner:tuner_a () in
  let server_b, thread_b, port_b = start_tcp_server ~tuner:tuner_b () in
  let addr_a = Printf.sprintf "127.0.0.1:%d" port_a in
  let addr_b = Printf.sprintf "127.0.0.1:%d" port_b in
  let fleet_b =
    Fleet.create
      {
        (Fleet.default_config ~self:addr_b ~peers:[ addr_a ]) with
        Fleet.token = "sesame";
        timeout_s = 5.;
      }
  in
  Server.set_router server_b (Fleet.router fleet_b);
  ( (server_a, thread_a, addr_a, calls_a),
    (server_b, thread_b, port_b, calls_b),
    fleet_b )

let daemon_tests =
  [
    Alcotest.test_case "miss-forwards-to-owner-then-readmits" `Quick (fun () ->
        let (server_a, thread_a, addr_a, calls_a),
            (server_b, thread_b, port_b, calls_b),
            fleet_b =
          start_pair ()
        in
        let text = List.hd (owned_by fleet_b addr_a 1) in
        (* B does not own this fingerprint: the tune must run on A *)
        let r = plan_via port_b ~token:"sesame" (tune_req text) in
        Alcotest.(check string) "served via peer" "peer" r.Protocol.source;
        Alcotest.(check int) "A tuned it" 1 (Atomic.get calls_a);
        Alcotest.(check int) "B never tuned" 0 (Atomic.get calls_b);
        let sb = Server.stats server_b in
        Alcotest.(check int) "one forward" 1 sb.Protocol.forwarded;
        Alcotest.(check int) "one peer hit" 1 sb.Protocol.peer_hits;
        (* the forwarded plan was re-admitted into B's hot cache: the
           repeat is answered locally without another forward *)
        let r2 = plan_via port_b ~token:"sesame" (tune_req text) in
        Alcotest.(check string) "repeat served hot" "hot" r2.Protocol.source;
        Alcotest.(check int) "no second forward" 1
          (Server.stats server_b).Protocol.forwarded;
        shutdown_tcp server_a thread_a;
        shutdown_tcp server_b thread_b);
    Alcotest.test_case "owner-lookup-miss-is-authoritative" `Quick (fun () ->
        let (server_a, thread_a, addr_a, _),
            (server_b, thread_b, port_b, _),
            fleet_b =
          start_pair ()
        in
        let text = List.hd (owned_by fleet_b addr_a 1) in
        (match
           Client.with_endpoint ~attempts:50 ~token:"sesame" (tcp port_b)
             (fun c -> Client.request c (lookup_req text))
         with
        | Ok Protocol.Not_found_r -> ()
        | Ok _ -> Alcotest.fail "untuned lookup must miss"
        | Error msg -> Alcotest.fail msg);
        shutdown_tcp server_a thread_a;
        shutdown_tcp server_b thread_b);
    Alcotest.test_case "owner-down-degrades-to-local-tune" `Quick (fun () ->
        let (server_a, thread_a, addr_a, _),
            (server_b, thread_b, port_b, calls_b),
            fleet_b =
          start_pair ()
        in
        let texts = owned_by fleet_b addr_a 2 in
        shutdown_tcp server_a thread_a;
        (* the owner is gone: the request still succeeds, tuned by B *)
        let r = plan_via port_b ~token:"sesame" (tune_req (List.hd texts)) in
        Alcotest.(check string) "tuned locally" "tuned" r.Protocol.source;
        Alcotest.(check int) "B did the work" 1 (Atomic.get calls_b);
        Alcotest.(check bool) "fallback counted" true
          ((Server.stats server_b).Protocol.peer_fallbacks >= 1);
        Alcotest.(check bool) "owner breaker tripped" true
          (Breaker.failures (Fleet.breaker fleet_b) addr_a >= 1);
        (* while the owner is backing off, the next foreign miss skips
           the connect and tunes locally right away *)
        let r2 =
          plan_via port_b ~token:"sesame" (tune_req (List.nth texts 1))
        in
        Alcotest.(check string) "still served, still local" "tuned"
          r2.Protocol.source;
        shutdown_tcp server_b thread_b);
  ]

(* --- journal format versioning --------------------------------------- *)

let read_lines path =
  In_channel.with_open_text path (fun ic ->
      In_channel.input_all ic |> String.split_on_char '\n')

let journal_tests =
  [
    Alcotest.test_case "fresh-journal-carries-the-version-stamp" `Quick
      (fun () ->
        let dir = Temp.dir "fleet-journal" in
        let cache = Plan_cache.create ~dir () in
        let accel = Option.get (Accelerator.by_name "toy") in
        Plan_cache.store cache ~accel ~op:(Ops.gemm ~m:4 ~n:4 ~k:4 ())
          ~budget:small_budget Plan_cache.Scalar;
        match read_lines (Filename.concat dir "journal.txt") with
        | first :: _ ->
            Alcotest.(check string)
              "first line is the stamp"
              (Printf.sprintf "amos-journal %d" Plan_cache.journal_version)
              first
        | [] -> Alcotest.fail "empty journal");
    Alcotest.test_case "legacy-unstamped-journal-still-loads" `Quick (fun () ->
        let dir = Temp.dir "fleet-journal-legacy" in
        let accel = Option.get (Accelerator.by_name "toy") in
        let op = Ops.gemm ~m:4 ~n:4 ~k:4 () in
        (* written in the per-entry-file layout, stamp stripped: a
           journal from before versioning, which opening imports *)
        Plan_cache_oracle.store
          (Plan_cache_oracle.create ~dir ())
          ~accel ~op ~budget:small_budget Plan_cache.Scalar;
        let path = Filename.concat dir "journal.txt" in
        let legacy =
          read_lines path
          |> List.filter (fun l ->
                 not (String.length l >= 12 && String.sub l 0 12 = "amos-journal"))
          |> String.concat "\n"
        in
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc legacy);
        let reopened = Plan_cache.create ~dir () in
        (match Plan_cache.lookup reopened ~accel ~op ~budget:small_budget with
        | Some Plan_cache.Scalar -> ()
        | Some _ -> Alcotest.fail "wrong plan back"
        | None -> Alcotest.fail "legacy journal lost the entry"));
    Alcotest.test_case "unknown-journal-version-rejected-typed" `Quick
      (fun () ->
        let dir = Temp.dir "fleet-journal-future" in
        let future = string_of_int (Plan_cache.journal_version + 1) in
        Out_channel.with_open_text (Filename.concat dir "journal.txt")
          (fun oc -> Out_channel.output_string oc ("amos-journal " ^ future ^ "\n"));
        match Plan_cache.create ~dir () with
        | exception Plan_cache.Unsupported_journal { version; _ } ->
            Alcotest.(check string) "reports the alien version" future version
        | _ -> Alcotest.fail "future journal version must be rejected");
  ]

let suites =
  [
    ( "fleet.ring",
      ring_tests
      @ List.map to_alcotest [ prop_ring_deterministic; prop_ring_bounded_churn ]
    );
    ("fleet.breaker", breaker_tests);
    ("fleet.handshake", handshake_tests);
    ("fleet.daemon", daemon_tests);
    ("fleet.journal", journal_tests);
  ]
