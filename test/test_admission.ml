(* The deadline-aware deficit-round-robin admission queue, tested
   entirely on a virtual clock: no test here sleeps, delays, or reads
   wall time — every duration is an explicit [Clock.advance], so the
   whole scheduler harness is deterministic and instant.

   Three layers: pinned unit cases for the DRR mechanics
   (admission.drr), the EWMA/deadline interplay (admission.deadline),
   and QCheck properties (props.admission) pinning the fairness bound,
   no-starvation, projected-wait monotonicity, determinism, and the
   wire codec of the new streaming/cancellation frames under the
   3-seed CI matrix. *)

module Admission = Amos_server.Admission
module Protocol = Amos_server.Protocol
module Clock = Amos_service.Clock

let qcheck_seed =
  match Sys.getenv_opt "QCHECK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some i -> i | None -> 421)
  | None -> 421

let to_alcotest t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| qcheck_seed |]) t

let make ?alpha ?weight_of ?(workers = 1) ?(capacity = 1000) ?(clock = Clock.virtual_ ()) () =
  (Admission.create ?alpha ?weight_of ~clock ~workers ~capacity (), clock)

(* submit a labelled no-op and record the service order by label *)
let submit_tag q ~client served tag =
  match
    Admission.submit q ~client (fun () -> served := tag :: !served)
  with
  | `Admitted -> ()
  | `Busy -> Alcotest.fail "unexpected Busy"
  | `Deadline _ -> Alcotest.fail "unexpected Deadline"

(* take and run [n] tasks back to back (each completes instantly in
   virtual time), failing if the queue ever stalls early *)
let run_n q n =
  for i = 1 to n do
    match Admission.take q with
    | Some task -> task ()
    | None -> Alcotest.fail (Printf.sprintf "queue stalled at task %d/%d" i n)
  done

let drr_tests =
  [
    Alcotest.test_case "fifo-within-one-client" `Quick (fun () ->
        let q, _ = make () in
        let served = ref [] in
        List.iter (submit_tag q ~client:"a" served) [ "1"; "2"; "3" ];
        run_n q 3;
        Alcotest.(check (list string))
          "one client's backlog is FIFO" [ "1"; "2"; "3" ]
          (List.rev !served));
    Alcotest.test_case "weights-set-the-interleave" `Quick (fun () ->
        (* a at weight 2, b at weight 1: the head client spends its full
           quantum before the round rotates, so every round serves a
           twice then b once — exactly the weight ratio *)
        let weight_of = function "a" -> 2 | _ -> 1 in
        let q, _ = make ~weight_of () in
        let served = ref [] in
        for i = 1 to 4 do
          submit_tag q ~client:"a" served (Printf.sprintf "a%d" i);
          submit_tag q ~client:"b" served (Printf.sprintf "b%d" i)
        done;
        run_n q 6;
        Alcotest.(check (list string))
          "two a per one b, FIFO within each"
          [ "a1"; "a2"; "b1"; "a3"; "a4"; "b2" ]
          (List.rev !served));
    Alcotest.test_case "capacity-bounds-the-total-backlog" `Quick (fun () ->
        let q, _ = make ~capacity:2 () in
        let served = ref [] in
        submit_tag q ~client:"a" served "1";
        submit_tag q ~client:"b" served "2";
        (match Admission.submit q ~client:"c" (fun () -> ()) with
        | `Busy -> ()
        | `Admitted | `Deadline _ ->
            Alcotest.fail "backlog above capacity must be Busy");
        (* serving one task frees one slot *)
        run_n q 1;
        match Admission.submit q ~client:"c" (fun () -> ()) with
        | `Admitted -> ()
        | `Busy | `Deadline _ -> Alcotest.fail "freed slot must admit");
    Alcotest.test_case "worker-slots-gate-take" `Quick (fun () ->
        let q, _ = make ~workers:2 () in
        let served = ref [] in
        List.iter (submit_tag q ~client:"a" served) [ "1"; "2"; "3" ];
        let t1 =
          match Admission.take q with Some t -> t | None -> Alcotest.fail "t1"
        in
        let t2 =
          match Admission.take q with Some t -> t | None -> Alcotest.fail "t2"
        in
        Alcotest.(check int) "both slots running" 2 (Admission.running q);
        (* both slots taken: the third task must wait for a completion *)
        (match Admission.take q with
        | None -> ()
        | Some _ -> Alcotest.fail "take must respect the worker bound");
        t1 ();
        Alcotest.(check int) "slot released" 1 (Admission.running q);
        (match Admission.take q with
        | Some t3 -> t3 ()
        | None -> Alcotest.fail "freed slot must hand out queued work");
        t2 ();
        Alcotest.(check int) "all done" 0 (Admission.load q));
    Alcotest.test_case "close-refuses-but-keeps-backlog" `Quick (fun () ->
        let q, _ = make () in
        let served = ref [] in
        List.iter (submit_tag q ~client:"a" served) [ "1"; "2" ];
        submit_tag q ~client:"b" served "3";
        (* no started workers: close returns at once *)
        Admission.close q;
        (match Admission.submit q ~client:"a" (fun () -> ()) with
        | `Busy -> ()
        | `Admitted | `Deadline _ -> Alcotest.fail "closed queue must refuse");
        Alcotest.(check int) "backlog kept" 3 (Admission.depth q);
        (* the kept backlog still drains in DRR order *)
        run_n q 3;
        Alcotest.(check (list string))
          "every admitted task ran" [ "1"; "3"; "2" ] (List.rev !served);
        Alcotest.(check int) "all done" 0 (Admission.load q));
  ]

(* run one task that takes [dt] of virtual time, to feed the EWMA *)
let complete_one q clock dt =
  (match Admission.submit q ~client:"warmup" (fun () -> Clock.advance clock dt) with
  | `Admitted -> ()
  | `Busy | `Deadline _ -> Alcotest.fail "warmup task must admit");
  match Admission.take q with
  | Some task -> task ()
  | None -> Alcotest.fail "warmup task must be takeable"

let deadline_tests =
  [
    Alcotest.test_case "no-evidence-admits-any-deadline" `Quick (fun () ->
        (* before the first completion there is no duration evidence:
           even a 1 ms deadline is admitted rather than guessed at *)
        let q, _ = make () in
        match Admission.submit q ~client:"a" ~deadline_ms:1 (fun () -> ()) with
        | `Admitted -> ()
        | `Busy | `Deadline _ ->
            Alcotest.fail "bootstrapping queue must admit");
    Alcotest.test_case "first-completion-seeds-the-ewma" `Quick (fun () ->
        let q, clock = make () in
        complete_one q clock 2.0;
        (match Admission.ewma q with
        | Some e -> Alcotest.(check (float 1e-9)) "ewma = first dt" 2.0 e
        | None -> Alcotest.fail "ewma must exist after a completion");
        (* second completion smooths with alpha = 0.3 *)
        complete_one q clock 4.0;
        match Admission.ewma q with
        | Some e ->
            Alcotest.(check (float 1e-9)) "ewma smoothed"
              ((0.3 *. 4.0) +. (0.7 *. 2.0))
              e
        | None -> Alcotest.fail "ewma must persist");
    Alcotest.test_case "doomed-deadline-rejected-before-enqueue" `Quick
      (fun () ->
        let q, clock = make () in
        complete_one q clock 2.0;
        (* occupy the only worker so a new request projects one full
           EWMA'd task of wait *)
        (match Admission.submit q ~client:"a" (fun () -> ()) with
        | `Admitted -> ()
        | _ -> Alcotest.fail "occupant must admit");
        let _running =
          match Admission.take q with
          | Some t -> t
          | None -> Alcotest.fail "occupant must start"
        in
        let depth_before = Admission.depth q in
        (match
           Admission.submit q ~client:"b" ~deadline_ms:500 (fun () -> ())
         with
        | `Deadline w ->
            Alcotest.(check (float 1e-9)) "hint carries the projection" 2.0 w
        | `Admitted | `Busy ->
            Alcotest.fail "a 0.5s budget against a 2s projection must bounce");
        Alcotest.(check int) "doomed request was never enqueued" depth_before
          (Admission.depth q);
        (* the same client with budget above the projection is admitted *)
        match
          Admission.submit q ~client:"b" ~deadline_ms:2500 (fun () -> ())
        with
        | `Admitted -> ()
        | `Busy | `Deadline _ -> Alcotest.fail "ample budget must admit");
    Alcotest.test_case "projected-wait-scales-with-load" `Quick (fun () ->
        let q, clock = make ~workers:2 () in
        complete_one q clock 3.0;
        Alcotest.(check (float 1e-9)) "empty queue projects zero" 0.
          (Admission.projected_wait q);
        for _ = 1 to 4 do
          match Admission.submit q ~client:"a" (fun () -> ()) with
          | `Admitted -> ()
          | _ -> Alcotest.fail "must admit"
        done;
        (* 4 queued, 0 running, 2 workers: 4 * 3s / 2 *)
        Alcotest.(check (float 1e-9)) "ewma x load / workers" 6.0
          (Admission.projected_wait q));
  ]

(* --- properties ------------------------------------------------------ *)

let cases = 200

(* a backlogged client set with random weights: every client has more
   work queued than one full round can serve *)
let gen_clients : (string * int) list QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 2 6 >>= fun n ->
  list_repeat n (int_range 1 4) >>= fun weights ->
  return (List.mapi (fun i w -> (Printf.sprintf "c%d" i, w)) weights)

let arb_clients =
  QCheck.make
    ~print:(fun cs ->
      String.concat ","
        (List.map (fun (k, w) -> Printf.sprintf "%s:w%d" k w) cs))
    gen_clients

let service_counts clients ~serve =
  let weight_of key = List.assoc key clients in
  let q, _ = make ~weight_of ~workers:(serve + 1) () in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (key, _) ->
      Hashtbl.replace counts key 0;
      for _ = 1 to serve do
        match
          Admission.submit q ~client:key (fun () ->
              Hashtbl.replace counts key (1 + Hashtbl.find counts key))
        with
        | `Admitted -> ()
        | `Busy | `Deadline _ -> failwith "backlog must admit"
      done)
    clients;
  for _ = 1 to serve do
    match Admission.take q with
    | Some task -> task ()
    | None -> failwith "backlogged queue must be work-conserving"
  done;
  (q, counts)

(* DRR fairness: over any backlogged interval, each client's service is
   within one round (its own weight) of its proportional share *)
let prop_drr_fairness =
  QCheck.Test.make ~count:cases ~name:"DRR service within one round of share"
    arb_clients (fun clients ->
      let total_weight =
        List.fold_left (fun acc (_, w) -> acc + w) 0 clients
      in
      let serve = 6 * total_weight in
      let _, counts = service_counts clients ~serve in
      List.for_all
        (fun (key, w) ->
          let got = float_of_int (Hashtbl.find counts key) in
          let share =
            float_of_int serve *. float_of_int w /. float_of_int total_weight
          in
          Float.abs (got -. share) <= float_of_int w +. 1e-9)
        clients)

(* no starvation: serving one full round's worth of tasks touches every
   backlogged client at least once, whatever the weights *)
let prop_no_starvation =
  QCheck.Test.make ~count:cases ~name:"every backlogged client served each round"
    arb_clients (fun clients ->
      let total_weight =
        List.fold_left (fun acc (_, w) -> acc + w) 0 clients
      in
      let _, counts = service_counts clients ~serve:total_weight in
      List.for_all (fun (key, _) -> Hashtbl.find counts key >= 1) clients)

(* the deadline projection is monotone in backlog depth: piling more
   work onto the queue never shrinks the projected wait *)
let prop_projected_wait_monotone =
  QCheck.Test.make ~count:cases ~name:"projected wait monotone in depth"
    QCheck.(pair (float_range 0.001 10.) (int_range 1 50))
    (fun (dt, extra) ->
      let q, clock = make ~workers:3 () in
      complete_one q clock dt;
      let prev = ref (Admission.projected_wait q) in
      let monotone = ref true in
      for _ = 1 to extra do
        (match Admission.submit q ~client:"a" (fun () -> ()) with
        | `Admitted -> ()
        | _ -> failwith "must admit");
        let w = Admission.projected_wait q in
        if w < !prev -. 1e-12 then monotone := false;
        prev := w
      done;
      !monotone)

(* the scheduler is a pure function of the submission sequence: no time,
   no randomness — two identical runs serve in the identical order *)
let prop_deterministic_service_order =
  QCheck.Test.make ~count:cases ~name:"service order is deterministic"
    arb_clients (fun clients ->
      let order () =
        let weight_of key = List.assoc key clients in
        let q, _ = make ~weight_of ~workers:1000 () in
        let served = ref [] in
        List.iteri
          (fun i (key, _) ->
            for j = 1 to 3 + (i mod 2) do
              match
                Admission.submit q ~client:key (fun () ->
                    served := Printf.sprintf "%s#%d" key j :: !served)
              with
              | `Admitted -> ()
              | _ -> failwith "must admit"
            done)
          clients;
        let rec drain () =
          match Admission.take q with
          | Some task ->
              task ();
              drain ()
          | None -> ()
        in
        drain ();
        List.rev !served
      in
      order () = order ())

(* --- wire codec of the streaming / cancellation frames ---------------- *)

let gen_progress_body : Protocol.progress_body QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 0 100_000 >>= fun pg_generation ->
  option (float_range 1e-9 1e3) >>= fun pg_best_predicted ->
  option (float_range 1e-9 1e3) >>= fun pg_best_measured ->
  int_range 0 10_000_000 >>= fun pg_evaluations ->
  return
    { Protocol.pg_generation; pg_best_predicted; pg_best_measured;
      pg_evaluations }

let gen_stream_frame : Protocol.response QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 0 2 >>= fun which ->
  match which with
  | 0 -> gen_progress_body >>= fun b -> return (Protocol.Progress_r b)
  | 1 -> return Protocol.Cancelled_r
  | _ ->
      float_range 0. 1e4 >>= fun projected_wait_s ->
      return (Protocol.Deadline_hint_r { projected_wait_s })

let arb_stream_frame =
  QCheck.make
    ~print:(fun r -> String.escaped (Protocol.encode_response r))
    gen_stream_frame

let prop_stream_frames_roundtrip =
  QCheck.Test.make ~count:cases ~name:"stream frames decode . encode = id"
    arb_stream_frame (fun r ->
      Protocol.decode_response (Protocol.encode_response r) = Ok r)

let prop_cancel_roundtrip =
  QCheck.Test.make ~count:cases ~name:"cancel request round-trips"
    QCheck.(int_range 0 (1 lsl 30))
    (fun request_id ->
      Protocol.decode_request
        (Protocol.encode_request (Protocol.Cancel { request_id }))
      = Ok (Protocol.Cancel { request_id }, Protocol.empty_envelope))

(* an unknown frame type is a typed decode error on both sides of the
   wire, never an exception and never a silent misparse — what a PR-9
   decoder does when a too-new peer sends it a frame it cannot know *)
let prop_unknown_frames_rejected_typed =
  QCheck.Test.make ~count:cases ~name:"unknown frame types rejected typed"
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 1 12) QCheck.Gen.printable)
    (fun name ->
      let known =
        [ "health"; "stats"; "shutdown"; "lookup"; "tune"; "migrate_tune";
          "compile"; "cancel"; "ok"; "plan"; "not_found"; "busy"; "error";
          "compiled"; "progress"; "cancelled"; "deadline_hint"; "hello_ok";
          "hello_denied" ]
      in
      QCheck.assume (not (List.mem name known));
      QCheck.assume (not (String.contains name '"'));
      QCheck.assume (not (String.contains name '\\'));
      let payload = Printf.sprintf {|{"v":1,"type":"%s"}|} name in
      (match Protocol.decode_request payload with
      | Error _ -> true
      | Ok _ -> false)
      &&
      match Protocol.decode_response payload with
      | Error _ -> true
      | Ok _ -> false)

let suites =
  [
    ("admission.drr", drr_tests);
    ("admission.deadline", deadline_tests);
    ( "props.admission",
      List.map to_alcotest
        [
          prop_drr_fairness;
          prop_no_starvation;
          prop_projected_wait_monotone;
          prop_deterministic_service_order;
          prop_stream_frames_roundtrip;
          prop_cancel_roundtrip;
          prop_unknown_frames_rejected_typed;
        ] );
  ]
