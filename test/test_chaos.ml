(* Chaos harness for the networked plan service: the fault-injectable
   [Net_io] layer itself (one-shot plans, deterministic chaos draws,
   environment wiring), request deadline budgets (the peer hop observes
   strictly less than the client sent; an exhausted budget skips the
   fleet), client connection poisoning after stream desync, and
   client/server/peer flows under every fault class — each asserting a
   typed degraded outcome, never an escaped exception, and recovery on
   a fresh connection. *)

module Fingerprint = Amos_service.Fingerprint
module Plan_cache = Amos_service.Plan_cache
module Protocol = Amos_server.Protocol
module Server = Amos_server.Server
module Client = Amos_server.Client
module Transport = Amos_server.Transport
module Net_io = Amos_server.Net_io
module Fleet = Amos_fleet.Fleet
module Breaker = Amos_fleet.Breaker

let small_budget =
  { Fingerprint.population = 2; generations = 1; measure_top = 1; seed = 7 }

let gemm_text m =
  Printf.sprintf "for {i:%d, j:8} for {r:8r}: out[i,j] += a[i,r] * b[r,j]" m

let tune_req ?(m = 4) () =
  Protocol.Tune
    {
      accel = "toy";
      op = Protocol.Dsl_text (gemm_text m);
      budget = small_budget;
    }

let instant_tuner () =
  let calls = Atomic.make 0 in
  let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress:_ =
    Atomic.incr calls;
    { Server.value = Plan_cache.Scalar; evaluations = 1 }
  in
  (tuner, calls)

(* --- Net_io: fault plans, chaos determinism, env wiring ------------- *)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f a b)

let net_io_tests =
  [
    Alcotest.test_case "short-reads-and-writes-are-absorbed" `Quick (fun () ->
        with_socketpair (fun a b ->
            (* several partial deliveries on both directions: the frame
               loops must treat them as the legal kernel behaviour they
               are, not as errors.  The read fault is the first read's:
               the writes finish first, so the reader's first read would
               otherwise take the whole frame *)
            let net =
              Net_io.faulty
                [
                  { Net_io.op = Net_io.Write; after = 0; mode = Net_io.Short 2 };
                  { Net_io.op = Net_io.Write; after = 1; mode = Net_io.Short 1 };
                  { Net_io.op = Net_io.Read; after = 0; mode = Net_io.Short 1 };
                ]
            in
            let payload = Protocol.encode_request (tune_req ()) in
            Protocol.write_frame ~net a payload;
            match Protocol.read_frame (Protocol.reader ~net b) with
            | Ok got -> Alcotest.(check string) "payload intact" payload got
            | Error `Eof -> Alcotest.fail "eof"
            | Error (`Bad m) -> Alcotest.fail m));
    Alcotest.test_case "corrupt-write-yields-typed-bad-frame" `Quick (fun () ->
        with_socketpair (fun a b ->
            let net =
              Net_io.faulty
                [ { Net_io.op = Net_io.Write; after = 0; mode = Net_io.Corrupt } ]
            in
            Protocol.write_frame ~net a "{\"v\":1,\"type\":\"health\"}";
            match Protocol.read_frame (Protocol.reader b) with
            | Error (`Bad _) -> ()
            | Ok _ -> Alcotest.fail "corrupted frame decoded"
            | Error `Eof -> Alcotest.fail "eof"));
    Alcotest.test_case "reset-surfaces-as-econnreset" `Quick (fun () ->
        with_socketpair (fun a _b ->
            let net =
              Net_io.faulty
                [ { Net_io.op = Net_io.Read; after = 0; mode = Net_io.Reset } ]
            in
            match Protocol.read_frame (Protocol.reader ~net a) with
            | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
            | exception e -> Alcotest.fail (Printexc.to_string e)
            | Ok _ | Error _ ->
                Alcotest.fail "reset must raise, like the kernel would"));
    Alcotest.test_case "chaos-schedule-is-deterministic-per-seed" `Quick
      (fun () ->
        let drive net =
          List.init 60 (fun _ ->
              match Net_io.connect net (fun () -> Unix.stdin) with
              | _ -> false
              | exception _ -> true)
        in
        let mk () = Net_io.chaos ~stall_s:0.001 ~rate:0.3 ~seed:42 () in
        let s1 = drive (mk ()) and s2 = drive (mk ()) in
        Alcotest.(check (list bool)) "same seed, same schedule" s1 s2;
        let fired = Net_io.injected (mk ()) in
        Alcotest.(check int) "fresh handle fired nothing" 0 fired;
        let h = mk () in
        ignore (drive h);
        Alcotest.(check bool) "rate 0.3 fires some faults" true
          (Net_io.injected h > 0 && Net_io.injected h < 60);
        Alcotest.(check int) "every call was counted" 60
          (Net_io.op_count h Net_io.Connect);
        let quiet = Net_io.chaos ~rate:0. ~seed:42 () in
        ignore (drive quiet);
        Alcotest.(check int) "rate 0 never fires" 0 (Net_io.injected quiet));
    Alcotest.test_case "of-env-builds-and-rejects" `Quick (fun () ->
        let clear () =
          Unix.putenv "AMOS_NET_CHAOS" "";
          Unix.putenv "AMOS_NET_FAULTS" ""
        in
        Fun.protect ~finally:clear (fun () ->
            clear ();
            (* neither set: pass-through *)
            let plain = Net_io.of_env () in
            with_socketpair (fun a b ->
                Protocol.write_frame ~net:plain a "x";
                match Protocol.read_frame (Protocol.reader ~net:plain b) with
                | Ok "x" -> ()
                | _ -> Alcotest.fail "pass-through handle broke the frame");
            Unix.putenv "AMOS_NET_CHAOS" "rate=1.0,seed=3,stall=0.001";
            let chaotic = Net_io.of_env () in
            (match Net_io.connect chaotic (fun () -> Unix.stdin) with
            | _ -> ()
            | exception _ -> ());
            Alcotest.(check bool) "rate 1 chaos handle faults" true
              (Net_io.injected chaotic >= 0
              && Net_io.op_count chaotic Net_io.Connect = 1);
            Unix.putenv "AMOS_NET_CHAOS" "rate=0.5";
            (match Net_io.of_env () with
            | exception (Invalid_argument _) -> ()
            | _ -> Alcotest.fail "chaos spec without seed must be rejected");
            Unix.putenv "AMOS_NET_CHAOS" "";
            Unix.putenv "AMOS_NET_FAULTS" "read:2:reset;write:0:short:10";
            let faulty = Net_io.of_env () in
            Alcotest.(check int) "fault plan starts unfired" 0
              (Net_io.injected faulty);
            Unix.putenv "AMOS_NET_FAULTS" "read:banana:reset";
            match Net_io.of_env () with
            | exception (Invalid_argument _) -> ()
            | _ -> Alcotest.fail "malformed fault spec must be rejected"));
  ]

(* --- transport: getaddrinfo resolution and address parsing ---------- *)

let transport_tests =
  [
    Alcotest.test_case "parse-tcp-edge-cases" `Quick (fun () ->
        let ok s expected =
          match Transport.parse_tcp s with
          | Ok got ->
              Alcotest.(check (pair string int))
                (Printf.sprintf "parse %S" s) expected got
          | Error m -> Alcotest.failf "parse %S: %s" s m
        in
        ok "10.1.2.3:8080" ("10.1.2.3", 8080);
        ok ":8080" ("127.0.0.1", 8080);
        ok "8080" ("127.0.0.1", 8080);
        ok "example.com:0" ("example.com", 0);
        List.iter
          (fun s ->
            match Transport.parse_tcp s with
            | Error _ -> ()
            | Ok (h, p) ->
                Alcotest.failf "parse %S wrongly accepted as %s:%d" s h p)
          [ "host:99999"; "host:-1"; "host:"; "host:abc"; ""; "a:b:c" ]);
    Alcotest.test_case "numeric-addresses-skip-the-resolver" `Quick (fun () ->
        match Transport.resolve_inet "127.0.0.1" 4242 with
        | Unix.ADDR_INET (addr, port) ->
            Alcotest.(check string) "address" "127.0.0.1"
              (Unix.string_of_inet_addr addr);
            Alcotest.(check int) "port" 4242 port
        | Unix.ADDR_UNIX _ -> Alcotest.fail "expected an inet address");
    Alcotest.test_case "localhost-resolves-via-getaddrinfo" `Quick (fun () ->
        match Transport.resolve_inet "localhost" 80 with
        | Unix.ADDR_INET (_, 80) -> ()
        | Unix.ADDR_INET (_, p) -> Alcotest.failf "wrong port %d" p
        | Unix.ADDR_UNIX _ -> Alcotest.fail "expected an inet address"
        (* resolver-less sandboxes may lack even localhost; a typed
           failure is acceptable, a hang or crash is not *)
        | exception Failure _ -> ());
    Alcotest.test_case "unknown-host-fails-typed" `Quick (fun () ->
        match Transport.resolve_inet "no-such-host.invalid" 80 with
        | exception Failure msg ->
            Alcotest.(check bool) "names the host" true
              (try
                 ignore
                   (Str.search_forward
                      (Str.regexp_string "no-such-host.invalid") msg 0);
                 true
               with Not_found -> false)
        | _ -> Alcotest.fail "resolution must fail for .invalid");
  ]

(* --- deadline budgets ------------------------------------------------ *)

let start_unix_server ?router () =
  let tuner, calls = instant_tuner () in
  let socket_path = Temp.name ~suffix:".sock" "amos-chaos" in
  let server =
    Server.create ~tuner ?router (Server.default_config ~socket_path)
  in
  let thread = Thread.create Server.serve server in
  (server, thread, socket_path, calls)

let stop_server server thread =
  Server.stop server;
  Thread.join thread

let plan_via socket_path ?deadline_ms req =
  Client.with_conn ~attempts:50 socket_path (fun c ->
      match Client.request_retry ?deadline_ms c req with
      | Ok (Protocol.Plan_r r) -> r
      | Ok _ -> Alcotest.fail "expected Plan_r"
      | Error msg -> Alcotest.fail msg)

let deadline_tests =
  [
    Alcotest.test_case "peer-hop-observes-strictly-smaller-deadline" `Quick
      (fun () ->
        let observed = ref [] in
        let router ~fingerprint:_ ~deadline_ms _req =
          observed := deadline_ms :: !observed;
          `Fallback "recording router"
        in
        let server, thread, socket_path, _ = start_unix_server ~router () in
        let sent = 1000 in
        let r = plan_via socket_path ~deadline_ms:sent (tune_req ()) in
        Alcotest.(check string) "degrades to the local tune" "tuned"
          r.Protocol.source;
        (match !observed with
        | [ Some remaining ] ->
            Alcotest.(check bool)
              (Printf.sprintf "hop budget %d < sent %d" remaining sent)
              true
              (remaining < sent && remaining > 0)
        | [ None ] -> Alcotest.fail "router saw no deadline"
        | other ->
            Alcotest.failf "router consulted %d times" (List.length other));
        stop_server server thread);
    Alcotest.test_case "exhausted-budget-skips-the-hop" `Quick (fun () ->
        let consulted = ref 0 in
        let router ~fingerprint:_ ~deadline_ms:_ _req =
          incr consulted;
          `Fallback "should never run"
        in
        let server, thread, socket_path, calls = start_unix_server ~router () in
        (* 10ms cannot pay the forwarding margin + a useful hop: the
           request must tune locally without touching the router *)
        let r = plan_via socket_path ~deadline_ms:10 (tune_req ()) in
        Alcotest.(check string) "still served" "tuned" r.Protocol.source;
        Alcotest.(check int) "tuned locally" 1 (Atomic.get calls);
        Alcotest.(check int) "router skipped" 0 !consulted;
        Alcotest.(check int) "fallback counted" 1
          (Server.stats server).Protocol.budget_fallbacks;
        stop_server server thread);
    Alcotest.test_case "no-deadline-forwards-unbounded" `Quick (fun () ->
        let observed = ref [] in
        let router ~fingerprint:_ ~deadline_ms _req =
          observed := deadline_ms :: !observed;
          `Fallback "recording router"
        in
        let server, thread, socket_path, _ = start_unix_server ~router () in
        ignore (plan_via socket_path (tune_req ()));
        (match !observed with
        | [ None ] -> ()
        | [ Some d ] -> Alcotest.failf "phantom deadline %d" d
        | other ->
            Alcotest.failf "router consulted %d times" (List.length other));
        Alcotest.(check int) "no budget fallback" 0
          (Server.stats server).Protocol.budget_fallbacks;
        stop_server server thread);
  ]

(* --- connection poisoning -------------------------------------------- *)

let contains needle hay =
  try
    ignore (Str.search_forward (Str.regexp_string needle) hay 0);
    true
  with Not_found -> false

let poison_tests =
  [
    Alcotest.test_case "timeout-poisons-until-reconnect" `Quick (fun () ->
        let server, thread, socket_path, _ = start_unix_server () in
        let net =
          Net_io.faulty
            [ { Net_io.op = Net_io.Read; after = 0; mode = Net_io.Timeout } ]
        in
        let conn =
          Client.connect_endpoint ~net ~attempts:50
            (Transport.Unix_path socket_path)
        in
        (match Client.request conn Protocol.Health with
        | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "typed poison error (got %S)" msg)
              true
              (contains "connection poisoned" msg && contains "timed out" msg)
        | Ok _ -> Alcotest.fail "injected timeout must fail the request");
        Alcotest.(check bool) "connection marked poisoned" true
          (Option.is_some (Client.poisoned conn));
        (* later requests are refused without touching the socket: the
           desynced stream might hand back the previous answer *)
        let reads_before = Net_io.op_count net Net_io.Read in
        (match Client.request conn Protocol.Health with
        | Error msg ->
            Alcotest.(check bool) "refused typed" true
              (contains "connection poisoned" msg)
        | Ok _ -> Alcotest.fail "poisoned connection must refuse requests");
        Alcotest.(check int) "no further reads" reads_before
          (Net_io.op_count net Net_io.Read);
        Client.close conn;
        (* recovery is a fresh connection *)
        (match
           Client.with_conn ~attempts:50 socket_path (fun c ->
               Client.request c Protocol.Health)
         with
        | Ok (Protocol.Ok_r _) -> ()
        | Ok _ -> Alcotest.fail "expected Ok_r"
        | Error msg -> Alcotest.fail msg);
        stop_server server thread);
    Alcotest.test_case "corrupt-reply-poisons" `Quick (fun () ->
        let server, thread, socket_path, _ = start_unix_server () in
        let net =
          Net_io.faulty
            [ { Net_io.op = Net_io.Read; after = 0; mode = Net_io.Corrupt } ]
        in
        let conn =
          Client.connect_endpoint ~net ~attempts:50
            (Transport.Unix_path socket_path)
        in
        (match Client.request conn Protocol.Health with
        | Error msg ->
            Alcotest.(check bool)
              (Printf.sprintf "typed bad-frame poison (got %S)" msg)
              true
              (contains "connection poisoned" msg)
        | Ok _ -> Alcotest.fail "corrupted reply must fail the request");
        Alcotest.(check bool) "connection marked poisoned" true
          (Option.is_some (Client.poisoned conn));
        Client.close conn;
        stop_server server thread);
  ]

(* --- fault classes across client/server/peer flows ------------------- *)

(* one client-side fault on the named op: partial deliveries and stalls
   must be absorbed; resets, timeouts and corruption must degrade to a
   typed [Error] (no exception), and a fresh connection must recover *)
let client_side_case name op mode ~absorbed =
  Alcotest.test_case name `Quick (fun () ->
      let server, thread, socket_path, _ = start_unix_server () in
      let net = Net_io.faulty [ { Net_io.op; after = 0; mode } ] in
      let conn =
        Client.connect_endpoint ~net ~attempts:50
          (Transport.Unix_path socket_path)
      in
      (match Client.request conn Protocol.Health with
      | Ok (Protocol.Ok_r _) ->
          Alcotest.(check bool) "fault absorbed transparently" true absorbed
      | Ok _ -> Alcotest.fail "expected Ok_r"
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "typed degradation expected (got %S)" msg)
            true (not absorbed));
      Client.close conn;
      (* the fault is spent: recovery needs only a fresh connection *)
      (match
         Client.with_conn ~attempts:50 socket_path (fun c ->
             Client.request c Protocol.Health)
       with
      | Ok (Protocol.Ok_r _) -> ()
      | Ok _ -> Alcotest.fail "expected Ok_r"
      | Error msg -> Alcotest.fail ("no recovery: " ^ msg));
      stop_server server thread)

(* one server-side fault: the daemon must keep serving — the faulted
   connection may die (typed, client-side), but the next connection gets
   a real answer and the daemon never crashes *)
let server_side_case name op mode =
  Alcotest.test_case name `Quick (fun () ->
      let tuner, _ = instant_tuner () in
      let socket_path = Temp.name ~suffix:".sock" "amos-chaos" in
      let net = Net_io.faulty [ { Net_io.op; after = 0; mode } ] in
      let server =
        Server.create ~tuner
          { (Server.default_config ~socket_path) with net }
      in
      let thread = Thread.create Server.serve server in
      (match
         Client.with_conn ~attempts:50 socket_path (fun c ->
             Client.request c Protocol.Health)
       with
      | Ok _ -> ()  (* absorbed, or answered with a typed server error *)
      | Error _ -> ()  (* typed client-side degradation *));
      (* the fault is spent and the daemon survived it *)
      (match
         Client.with_conn ~attempts:50 socket_path (fun c ->
             Client.request c Protocol.Health)
       with
      | Ok (Protocol.Ok_r _) -> ()
      | Ok _ -> Alcotest.fail "expected Ok_r"
      | Error msg -> Alcotest.fail ("daemon did not recover: " ^ msg));
      stop_server server thread)

let flow_tests =
  [
    client_side_case "client-short-read-absorbed" Net_io.Read (Net_io.Short 1)
      ~absorbed:true;
    client_side_case "client-short-write-absorbed" Net_io.Write
      (Net_io.Short 2) ~absorbed:true;
    client_side_case "client-stalled-read-absorbed" Net_io.Read
      (Net_io.Stall 0.02) ~absorbed:true;
    client_side_case "client-read-reset-degrades-typed" Net_io.Read
      Net_io.Reset ~absorbed:false;
    client_side_case "client-write-reset-degrades-typed" Net_io.Write
      Net_io.Reset ~absorbed:false;
    client_side_case "client-read-timeout-degrades-typed" Net_io.Read
      Net_io.Timeout ~absorbed:false;
    client_side_case "client-corrupt-reply-degrades-typed" Net_io.Read
      Net_io.Corrupt ~absorbed:false;
    server_side_case "server-short-read-survives" Net_io.Read (Net_io.Short 1);
    server_side_case "server-read-reset-survives" Net_io.Read Net_io.Reset;
    server_side_case "server-read-timeout-survives" Net_io.Read Net_io.Timeout;
    server_side_case "server-corrupt-request-survives" Net_io.Read
      Net_io.Corrupt;
    server_side_case "server-write-reset-survives" Net_io.Write Net_io.Reset;
    server_side_case "server-short-write-survives" Net_io.Write
      (Net_io.Short 3);
  ]

(* --- peer forwarding under faults ------------------------------------ *)

let start_tcp_server ?tuner ?(token = "sesame") () =
  let server =
    Server.create ?tuner
      {
        (Server.default_config ~socket_path:"unused") with
        Server.socket_path = None;
        tcp = Some ("127.0.0.1", 0);
        auth_token = Some token;
        workers = 1;
        queue_capacity = 4;
      }
  in
  let thread = Thread.create Server.serve server in
  let port =
    match Server.tcp_port server with
    | Some p -> p
    | None -> Alcotest.fail "server bound no TCP port"
  in
  (server, thread, port)

let peer_tests =
  [
    Alcotest.test_case "forward-fault-degrades-to-local-tune" `Quick (fun () ->
        let tuner_b, calls_b = instant_tuner () in
        let server_a, thread_a, port_a = start_tcp_server () in
        let server_b, thread_b, port_b = start_tcp_server ~tuner:tuner_b () in
        let addr_a = Printf.sprintf "127.0.0.1:%d" port_a in
        let addr_b = Printf.sprintf "127.0.0.1:%d" port_b in
        (* every forward B attempts dies at connect: the owner is alive
           but unreachable through this (faulted) network *)
        let bad_net =
          Net_io.faulty
            [
              { Net_io.op = Net_io.Connect; after = 0; mode = Net_io.Reset };
              { Net_io.op = Net_io.Connect; after = 1; mode = Net_io.Reset };
            ]
        in
        let fleet_b =
          Fleet.create
            {
              (Fleet.default_config ~self:addr_b ~peers:[ addr_a ]) with
              Fleet.token = "sesame";
              timeout_s = 2.;
              net = bad_net;
            }
        in
        Server.set_router server_b (Fleet.router fleet_b);
        (* find an operator the ring assigns to A, so B must forward *)
        let accel = Option.get (Amos.Accelerator.by_name "toy") in
        let rec owned m =
          let text = gemm_text m in
          let op = Amos_ir.Dsl.parse_exn ~name:"wire-op" text in
          let fp = Fingerprint.key ~accel ~op ~budget:small_budget in
          if Fleet.owner fleet_b fp = Some addr_a then text else owned (m + 4)
        in
        let text = owned 4 in
        let r =
          match
            Client.with_endpoint ~attempts:50 ~token:"sesame"
              (Transport.Tcp { host = "127.0.0.1"; port = port_b })
              (fun c ->
                Client.request_retry c
                  (Protocol.Tune
                     {
                       accel = "toy";
                       op = Protocol.Dsl_text text;
                       budget = small_budget;
                     }))
          with
          | Ok (Protocol.Plan_r r) -> r
          | Ok _ -> Alcotest.fail "expected Plan_r"
          | Error msg -> Alcotest.fail msg
        in
        Alcotest.(check string) "degraded to the local tune" "tuned"
          r.Protocol.source;
        Alcotest.(check int) "B did the work" 1 (Atomic.get calls_b);
        Alcotest.(check bool) "breaker tripped on the faulted forward" true
          (Breaker.failures (Fleet.breaker fleet_b) addr_a >= 1);
        Alcotest.(check bool) "fallback counted" true
          ((Server.stats server_b).Protocol.peer_fallbacks >= 1);
        Server.stop server_a;
        Thread.join thread_a;
        stop_server server_b thread_b);
  ]

(* --- streaming under faults ------------------------------------------ *)

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

(* a tuner that streams three generations then parks on a gate: the
   fault lands mid-stream while the flight is provably still running *)
let start_gated_stream_server () =
  let gate = Semaphore.Counting.make 0 in
  let calls = Atomic.make 0 in
  let tuner ~jobs:_ ~accel:_ ~op:_ ~budget:_ ~seeds:_ ~progress =
    Atomic.incr calls;
    Option.iter
      (fun f ->
        List.iter
          (fun g ->
            f
              {
                Amos.Explore.pr_generation = g;
                pr_best_predicted = 0.001 *. float_of_int g;
                pr_best_measured = infinity;
                pr_evaluations = 4 * g;
              })
          [ 1; 2; 3 ])
      progress;
    Semaphore.Counting.acquire gate;
    { Server.value = Plan_cache.Scalar; evaluations = 12 }
  in
  let socket_path = Temp.name ~suffix:".sock" "amos-chaos-stream" in
  let server = Server.create ~tuner (Server.default_config ~socket_path) in
  let thread = Thread.create Server.serve server in
  (server, thread, socket_path, gate, calls)

(* stream [tune_req ()] on its own connection; the caller inspects the
   result, the progress frames, and the connection's poison reason *)
let stream_in_thread ?net socket_path ~request_id =
  let result = ref None and frames = ref [] and poison = ref None in
  let t =
    Thread.create
      (fun () ->
        result :=
          Some
            (Client.with_endpoint ?net ~attempts:50
               (Transport.Unix_path socket_path)
               (fun c ->
                 let r =
                   Client.request_stream ~request_id
                     ~on_progress:(fun p -> frames := p :: !frames)
                     c (tune_req ())
                 in
                 poison := Client.poisoned c;
                 r)))
      ()
  in
  (t, result, frames, poison)

(* the client's first read takes at least the whole first progress
   frame (the server writes each frame with one write, and the reader's
   buffer holds several), and the terminal frame cannot exist before the
   test opens the gate, which it does only after the leader finished.
   So a read fault armed at [after = 1] always fires after the first
   progress frame and before the stream could possibly finish. *)
let mid_second_frame mode =
  Net_io.faulty [ { Net_io.op = Net_io.Read; after = 1; mode } ]

let stream_poison_case name mode expect =
  Alcotest.test_case name `Quick (fun () ->
      let server, thread, socket_path, gate, calls =
        start_gated_stream_server ()
      in
      let ta, ra, fa, pa =
        stream_in_thread ~net:(mid_second_frame mode) socket_path
          ~request_id:42
      in
      wait_for "leader in flight" (fun () ->
          (Server.stats server).Protocol.in_flight = 1);
      (* a co-waiter on a clean connection coalesces onto the flight *)
      let tb, rb, fb, _ = stream_in_thread socket_path ~request_id:43 in
      wait_for "joiner deduped" (fun () ->
          (Server.stats server).Protocol.deduped = 1);
      (* the injected fault kills only the leader's connection *)
      Thread.join ta;
      (match !ra with
      | Some (Error msg) ->
          Alcotest.(check bool)
            (Printf.sprintf "typed %s failure (got: %s)" expect msg)
            true (contains expect msg)
      | Some (Ok _) -> Alcotest.fail "fault must surface as an error"
      | None -> Alcotest.fail "leader never finished");
      Alcotest.(check bool) "leader connection poisoned" true (!pa <> None);
      Alcotest.(check bool) "leader streamed before the fault" true
        (List.length !fa >= 1);
      (* the shared flight never noticed: still running, one tuner call *)
      Alcotest.(check int) "flight still running" 1
        (Server.stats server).Protocol.in_flight;
      Alcotest.(check int) "single exploration" 1 (Atomic.get calls);
      Semaphore.Counting.release gate;
      Thread.join tb;
      (match !rb with
      | Some (Ok (Protocol.Plan_r r)) ->
          Alcotest.(check string) "co-waiter served from the shared flight"
            "deduped" r.Protocol.source
      | Some (Ok _) -> Alcotest.fail "co-waiter: expected Plan_r"
      | Some (Error msg) -> Alcotest.fail ("co-waiter: " ^ msg)
      | None -> Alcotest.fail "co-waiter never finished");
      (* frames published before the join are not replayed: the late
         co-waiter may legitimately see none *)
      ignore !fb;
      wait_for "flight drained" (fun () ->
          (Server.stats server).Protocol.in_flight = 0);
      stop_server server thread)

let stream_chaos_tests =
  [
    stream_poison_case "mid-stream-reset-poisons-client-not-flight"
      Net_io.Reset "transport error";
    stream_poison_case "mid-stream-stall-timeout-poisons-client-not-flight"
      Net_io.Timeout "timed out";
    Alcotest.test_case "cancel-racing-a-fault-resolves-exactly-once" `Quick
      (fun () ->
        let server, thread, socket_path, gate, calls =
          start_gated_stream_server ()
        in
        let ta, ra, _, _ =
          stream_in_thread ~net:(mid_second_frame Net_io.Reset) socket_path
            ~request_id:77
        in
        wait_for "leader in flight" (fun () ->
            (Server.stats server).Protocol.in_flight = 1);
        (* race the cancel against the injected reset: whichever side
           wins, the outcome is typed — detached, or already gone *)
        (match
           Client.with_conn ~attempts:50 socket_path (fun c ->
               Client.cancel c ~request_id:77)
         with
        | Ok (Protocol.Ok_r _) | Ok Protocol.Not_found_r -> ()
        | Ok _ -> Alcotest.fail "cancel: expected Ok_r or Not_found_r"
        | Error msg -> Alcotest.fail ("cancel: " ^ msg));
        Thread.join ta;
        (* the leader saw exactly one terminal outcome, never two *)
        (match !ra with
        | Some (Ok Protocol.Cancelled_r) -> ()
        | Some (Error msg) ->
            Alcotest.(check bool)
              (Printf.sprintf "poisoned, not crashed (got: %s)" msg)
              true
              (contains "transport error" msg
              || contains "connection poisoned" msg
              || contains "server closed" msg)
        | Some (Ok _) -> Alcotest.fail "leader: unexpected clean terminal"
        | None -> Alcotest.fail "leader never finished");
        Alcotest.(check int) "single exploration" 1 (Atomic.get calls);
        Semaphore.Counting.release gate;
        wait_for "flight drained" (fun () ->
            (Server.stats server).Protocol.in_flight = 0);
        (* the waiter resolved exactly once: a second cancel finds
           nothing, and the detach counter moved at most one notch *)
        (match
           Client.with_conn ~attempts:50 socket_path (fun c ->
               Client.cancel c ~request_id:77)
         with
        | Ok Protocol.Not_found_r -> ()
        | Ok _ -> Alcotest.fail "stale cancel must miss"
        | Error msg -> Alcotest.fail ("stale cancel: " ^ msg));
        Alcotest.(check bool) "at most one detach counted" true
          ((Server.stats server).Protocol.cancels <= 1);
        (match
           Client.with_conn ~attempts:50 socket_path (fun c ->
               Client.request c Protocol.Health)
         with
        | Ok (Protocol.Ok_r _) -> ()
        | _ -> Alcotest.fail "daemon unhealthy after the race");
        stop_server server thread);
  ]

(* --- end-to-end chaos ------------------------------------------------- *)

(* the bench gate in miniature: a daemon whose every socket operation
   faults with 25% probability must still answer every request a
   reconnecting client sends, in bounded time, with no escaped
   exception and no hung descriptor *)
let chaos_e2e_tests =
  [
    Alcotest.test_case "reconnecting-client-always-gets-its-plan" `Quick
      (fun () ->
        let tuner, _ = instant_tuner () in
        let socket_path = Temp.name ~suffix:".sock" "amos-chaos" in
        let net = Net_io.chaos ~stall_s:0.005 ~rate:0.25 ~seed:11 () in
        let server =
          Server.create ~tuner
            { (Server.default_config ~socket_path) with net }
        in
        let thread = Thread.create Server.serve server in
        let t0 = Unix.gettimeofday () in
        let fetch m =
          let rec go tries last =
            if tries <= 0 then
              Alcotest.failf "op %d: no plan after retries (last: %s)" m last
            else
              match
                Client.with_conn ~attempts:50 ~timeout_s:2. socket_path
                  (fun c -> Client.request_retry c (tune_req ~m ()))
              with
              | Ok (Protocol.Plan_r r) -> r
              | Ok (Protocol.Error_r msg) -> go (tries - 1) msg
              | Ok _ -> go (tries - 1) "unexpected response"
              | Error msg -> go (tries - 1) msg
              | exception e -> go (tries - 1) (Printexc.to_string e)
          in
          go 12 "never tried"
        in
        List.iter
          (fun m -> ignore (fetch m))
          [ 4; 8; 12; 16; 20 ];
        Alcotest.(check bool) "bounded time, no hung descriptor" true
          (Unix.gettimeofday () -. t0 < 60.);
        Alcotest.(check bool) "chaos actually fired" true
          (Net_io.injected net > 0);
        stop_server server thread);
  ]

let suites =
  [
    ("chaos.net_io", net_io_tests);
    ("chaos.transport", transport_tests);
    ("chaos.deadline", deadline_tests);
    ("chaos.poison", poison_tests);
    ("chaos.flows", flow_tests);
    ("chaos.peer", peer_tests);
    ("chaos.stream", stream_chaos_tests);
    ("chaos.e2e", chaos_e2e_tests);
  ]
