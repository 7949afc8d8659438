(* The daemon's tuning table — flights, deadline-aware
   deficit-round-robin admission — tested entirely on a virtual clock:
   no test here sleeps, delays, or reads wall time — every duration is
   an explicit [Clock.advance], so the whole scheduler harness is
   deterministic and instant.

   Four layers: pinned unit cases for the DRR mechanics
   (admission.drr), the EWMA/deadline interplay (admission.deadline),
   QCheck properties (props.admission) pinning the fairness bound,
   no-starvation, projected-wait monotonicity, determinism, and the
   wire codec of the streaming/cancellation frames, and random scripts
   (props.flights) run against the two modules the table replaced,
   composed as the daemon composed them, under the 3-seed CI matrix. *)

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

(* submit a job under its own key; [true] when it was admitted *)
let admits q ~client ?deadline_ms key job =
  match Admission.submit q ~client ~key ?deadline_ms (fun _ -> job ()) with
  | `Admitted _ -> true
  | `Joined _ | `Busy | `Deadline _ -> false

(* submit a labelled no-op and record the service order by label *)
let submit_tag q ~client served tag =
  if not (admits q ~client tag (fun () -> served := tag :: !served)) then
    Alcotest.fail ("unexpected refusal of " ^ tag)

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
        (match Admission.submit q ~client:"c" ~key:"3" ignore with
        | `Busy -> ()
        | `Admitted _ | `Joined _ | `Deadline _ ->
            Alcotest.fail "backlog above capacity must be Busy");
        (* serving one task frees one slot *)
        run_n q 1;
        Alcotest.(check bool) "freed slot must admit" true
          (admits q ~client:"c" "3" ignore));
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
        (match Admission.submit q ~client:"a" ~key:"4" ignore with
        | `Busy -> ()
        | `Admitted _ | `Joined _ | `Deadline _ ->
            Alcotest.fail "closed queue must refuse");
        Alcotest.(check int) "backlog kept" 3 (Admission.depth q);
        (* the kept backlog still drains in DRR order *)
        run_n q 3;
        Alcotest.(check (list string))
          "every admitted task ran" [ "1"; "3"; "2" ] (List.rev !served);
        Alcotest.(check int) "all done" 0 (Admission.load q));
  ]

(* run one task that takes [dt] of virtual time, to feed the EWMA *)
let complete_one q clock dt =
  if not (admits q ~client:"warmup" "warmup" (fun () -> Clock.advance clock dt))
  then Alcotest.fail "warmup task must admit";
  match Admission.take q with
  | Some task -> task ()
  | None -> Alcotest.fail "warmup task must be takeable"

let deadline_tests =
  [
    Alcotest.test_case "no-evidence-admits-any-deadline" `Quick (fun () ->
        (* before the first completion there is no duration evidence:
           even a 1 ms deadline is admitted rather than guessed at *)
        let q, _ = make () in
        Alcotest.(check bool) "bootstrapping queue must admit" true
          (admits q ~client:"a" ~deadline_ms:1 "a" ignore));
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
        if not (admits q ~client:"a" "occupant" ignore) then
          Alcotest.fail "occupant must admit";
        let _running =
          match Admission.take q with
          | Some t -> t
          | None -> Alcotest.fail "occupant must start"
        in
        let depth_before = Admission.depth q in
        (match
           Admission.submit q ~client:"b" ~key:"b" ~deadline_ms:500 ignore
         with
        | `Deadline w ->
            Alcotest.(check (float 1e-9)) "hint carries the projection" 2.0 w
        | `Admitted _ | `Joined _ | `Busy ->
            Alcotest.fail "a 0.5s budget against a 2s projection must bounce");
        Alcotest.(check int) "doomed request was never enqueued" depth_before
          (Admission.depth q);
        (* the same client with budget above the projection is admitted *)
        Alcotest.(check bool) "ample budget must admit" true
          (admits q ~client:"b" ~deadline_ms:2500 "b" ignore));
    Alcotest.test_case "projected-wait-scales-with-load" `Quick (fun () ->
        let q, clock = make ~workers:2 () in
        complete_one q clock 3.0;
        Alcotest.(check (float 1e-9)) "empty queue projects zero" 0.
          (Admission.projected_wait q);
        for i = 1 to 4 do
          if not (admits q ~client:"a" (string_of_int i) ignore) then
            Alcotest.fail "must admit"
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
      for i = 1 to serve do
        if
          not
            (admits q ~client:key (Printf.sprintf "%s#%d" key i) (fun () ->
                 Hashtbl.replace counts key (1 + Hashtbl.find counts key)))
        then failwith "backlog must admit"
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
      for i = 1 to extra do
        if not (admits q ~client:"a" (string_of_int i) ignore) then
          failwith "must admit";
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
              let tag = Printf.sprintf "%s#%d" key j in
              let serve () = served := tag :: !served in
              if not (admits q ~client:key tag serve) then
                failwith "must admit"
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

(* --- the table against the two modules it replaced --------------------- *)

module Oracle_flights = Admission_oracle.Single_flight
module Oracle_queue = Admission_oracle.Admission

(* A job that parks: it hands its flight to the test and suspends until
   the test resumes it with the value to return.  No thread and no real
   time, so a script can publish, cancel and detach around a running
   job. *)
type _ Effect.t += Park : int Effect.t

type parked = Finished | Parked of (int, parked) Effect.Deep.continuation

let run_parked thunk =
  Effect.Deep.match_with thunk ()
    {
      retc = (fun () -> Finished);
      exnc = raise;
      effc =
        (fun (type b) (e : b Effect.t) ->
          match e with
          | Park ->
              Some (fun (k : (b, parked) Effect.Deep.continuation) -> Parked k)
          | _ -> None);
    }

let resume p v =
  match p with Parked k -> Effect.Deep.continue k v | Finished -> Finished

(* what a parked job returns once the progress hook saw its abort flag,
   as the daemon's job resolves busy on [Explore.Aborted] *)
let aborted = -1

(* an interleaving of everything that moves a flight: keyed submits
   (repeated keys, weighted clients, deadlines, streaming or not),
   takes, the running jobs' progress hook and return, reads, cancels
   and detaches of earlier submits, clock advances and close *)
type flight_step =
  | F_submit of int * int * int option * bool
      (* key, client, deadline ms, streaming *)
  | F_take
  | F_publish of int  (* running job: publish, or abort if requested *)
  | F_return of int * int  (* running job, value *)
  | F_read of int  (* submit index *)
  | F_cancel of int  (* request id = submit index *)
  | F_detach of int  (* submit index *)
  | F_advance of float
  | F_close

let show_flight_step = function
  | F_submit (k, c, d, s) ->
      Printf.sprintf "submit(k%d, c%d%s%s)" k c
        (match d with Some d -> Printf.sprintf ", %dms" d | None -> "")
        (if s then ", streaming" else "")
  | F_take -> "take"
  | F_publish j -> Printf.sprintf "publish(%d)" j
  | F_return (j, v) -> Printf.sprintf "return(%d, %d)" j v
  | F_read i -> Printf.sprintf "read(%d)" i
  | F_cancel i -> Printf.sprintf "cancel(%d)" i
  | F_detach i -> Printf.sprintf "detach(%d)" i
  | F_advance dt -> Printf.sprintf "advance(%gs)" dt
  | F_close -> "close"

let gen_flight_step =
  let open QCheck.Gen in
  frequency
    [
      ( 6,
        map3
          (fun (k, c) d s -> F_submit (k, c, d, s))
          (pair (int_range 0 3) (int_range 0 2))
          (option (int_range 0 3000))
          bool );
      (3, return F_take);
      (3, map (fun j -> F_publish j) (int_range 0 2));
      (2, map2 (fun j v -> F_return (j, v)) (int_range 0 2) (int_range 0 99));
      (3, map (fun i -> F_read i) (int_range 0 15));
      (1, map (fun i -> F_cancel i) (int_range 0 15));
      (2, map (fun i -> F_detach i) (int_range 0 15));
      (1, map (fun ds -> F_advance (float_of_int ds /. 10.)) (int_range 1 30));
      (1, frequency [ (1, return F_close); (4, return F_take) ]);
    ]

let arb_flight_script =
  QCheck.make
    ~shrink:(fun (config, weights, steps) ->
      QCheck.Iter.map (fun steps -> (config, weights, steps))
        (QCheck.Shrink.list steps))
    ~print:(fun ((workers, capacity), weights, steps) ->
      Printf.sprintf "workers=%d capacity=%d weights=%s [%s]" workers capacity
        (String.concat "," (List.map string_of_int weights))
        (String.concat "; " (List.map show_flight_step steps)))
    QCheck.Gen.(
      triple
        (pair (int_range 1 3) (int_range 1 4))
        (list_repeat 3 (int_range 1 3))
        (list_size (int_range 1 60) gen_flight_step))

type read = R_progress of int | R_done of int | R_failed | R_cancelled

(* every submit outcome, every non-blocking read, every take, publish,
   cancel and detach, and after each step [in_flight], [load], [depth]
   and [projected_wait], agree between the table and the oracle composed
   as the daemon composed it: refuse while stopping, [acquire], [submit]
   only when leading, and on a refusal complete the flight as busy and
   detach the leader.  Jobs never raise here: the oracle strands a
   raising job's waiters, where the table resolves them (pinned by
   [server.primitives]). *)
let prop_flights =
  QCheck.Test.make ~count:cases ~name:"table = single-flight + admission"
    arb_flight_script (fun ((workers, capacity), weights, steps) ->
      let clock = Clock.virtual_ () in
      let weight_of c = List.nth weights (Char.code c.[1] - Char.code '0') in
      let q = Admission.create ~weight_of ~clock ~workers ~capacity () in
      let sf = Oracle_flights.create () in
      let oq = Oracle_queue.create ~weight_of ~clock ~workers ~capacity () in
      let stopping = ref false in
      (* per submit: both waiters, when the submit got one *)
      let waiters = ref [||] in
      let registry = Hashtbl.create 16 in
      (* running jobs: (submit index, flights, parked continuations) *)
      let running = ref [] in
      let started = ref None in
      let snapshot = ref 0 in
      let submit i key client deadline_ms streaming =
        let key = Printf.sprintf "k%d" key
        and client = Printf.sprintf "c%d" client in
        let fresh =
          Admission.submit q ~client ~key ?deadline_ms ~streaming ~request_id:i
            (fun fl ->
              started := Some (i, `Table fl);
              Effect.perform Park)
        in
        let old =
          if !stopping then `Busy
          else
            match Oracle_flights.acquire ~streaming sf key with
            | `Join w -> `Joined w
            | `Lead w -> (
                let fl = Oracle_flights.flight w in
                let task () =
                  started := Some (i, `Oracle fl);
                  Oracle_flights.complete sf fl (Effect.perform Park)
                in
                let refuse r =
                  Oracle_flights.complete sf fl aborted;
                  ignore (Oracle_flights.detach sf w);
                  r
                in
                match Oracle_queue.submit oq ~client ?deadline_ms task with
                | `Admitted -> `Admitted w
                | `Busy -> refuse `Busy
                | `Deadline p -> refuse (`Deadline p))
        in
        let pair =
          match (fresh, old) with
          | `Admitted a, `Admitted b | `Joined a, `Joined b ->
              Hashtbl.replace registry i b;
              Some (a, b)
          | _ -> None
        in
        waiters := Array.append !waiters [| pair |];
        match (fresh, old) with
        | `Admitted _, `Admitted _ | `Joined _, `Joined _ | `Busy, `Busy -> true
        | `Deadline a, `Deadline b -> a = b
        | _ -> false
      in
      let waiter i =
        let n = Array.length !waiters in
        if n = 0 then None else !waiters.(i mod n)
      in
      (* hand running job [j] to [f], with [finish v] returning [v]
         from both copies of it *)
      let job j f =
        match !running with
        | [] -> true
        | rs ->
            let ((_, (fl, ofl), (p, op)) as r) =
              List.nth rs (j mod List.length rs)
            in
            let finish v =
              running := List.filter (fun x -> x != r) rs;
              match (resume p v, resume op v) with
              | Finished, Finished -> true
              | _ -> false
            in
            f fl ofl finish
      in
      let take () =
        match (Admission.take q, Oracle_queue.take oq) with
        | None, None -> true
        | Some thunk, Some othunk -> (
            let p = run_parked thunk in
            let fresh = !started in
            let op = run_parked othunk in
            match (fresh, !started) with
            | Some (i, `Table fl), Some (i', `Oracle ofl) when i = i' ->
                running := !running @ [ (i, (fl, ofl), (p, op)) ];
                true
            | _ -> false)
        | _ -> false
      in
      let read (w, ow) =
        let table =
          match Admission.next q w with
          | `Progress p -> R_progress p
          | `Done v -> R_done v
          | `Failed _ -> R_failed
          | `Cancelled -> R_cancelled
        in
        let old =
          match Oracle_flights.next sf ow with
          | `Progress p -> R_progress p
          | `Done v -> R_done v
          | `Cancelled -> R_cancelled
        in
        if table = old then Some old else None
      in
      (* the oracle's own state says whether [next] would block *)
      let readable ow =
        ow.Oracle_flights.w_cancelled
        || (not (Queue.is_empty ow.Oracle_flights.w_queue))
        || ow.Oracle_flights.w_flight.Oracle_flights.result <> None
      in
      let detach i (w, ow) =
        Hashtbl.remove registry i;
        Admission.detach q w = Oracle_flights.detach sf ow
      in
      let step = function
        | F_submit (key, client, deadline_ms, streaming) ->
            submit (Array.length !waiters) key client deadline_ms streaming
        | F_take -> take ()
        | F_publish j ->
            (* the daemon's progress hook: abort once asked, else publish *)
            job j (fun fl ofl finish ->
                let abort = Admission.abort_requested fl in
                if abort <> Oracle_flights.abort_requested ofl then false
                else if abort then finish aborted
                else begin
                  incr snapshot;
                  Admission.publish q fl !snapshot;
                  Oracle_flights.publish sf ofl !snapshot;
                  true
                end)
        | F_return (j, v) -> job j (fun _ _ finish -> finish v)
        | F_read i -> (
            match waiter i with
            | Some ((_, ow) as pair)
              when readable ow && not ow.Oracle_flights.w_detached ->
                read pair <> None
            | _ -> true)
        | F_cancel i ->
            let old =
              match Hashtbl.find_opt registry i with
              | Some ow ->
                  Oracle_flights.cancel sf ow;
                  true
              | None -> false
            in
            Admission.cancel q i = old
        | F_detach i -> (
            match waiter i with
            | Some pair -> detach (i mod Array.length !waiters) pair
            | None -> true)
        | F_advance dt ->
            Clock.advance clock dt;
            true
        | F_close ->
            stopping := true;
            Admission.close q;
            Oracle_queue.close oq;
            true
      in
      let agree () =
        Admission.in_flight q = Oracle_flights.in_flight sf
        && Admission.load q = Oracle_queue.load oq
        && Admission.depth q = Oracle_queue.depth oq
        && Admission.projected_wait q = Oracle_queue.projected_wait oq
      in
      (* the script, then every job run to its return, then every
         attached waiter read to its end *)
      let rec drain () =
        match !running with
        | _ :: _ -> job 0 (fun _ _ finish -> finish 0) && agree () && drain ()
        | [] -> (
            match (Admission.take q, Oracle_queue.take oq) with
            | None, None -> true
            | Some _, None | None, Some _ -> false
            | Some thunk, Some othunk -> (
                let p = run_parked thunk and op = run_parked othunk in
                match (resume p 0, resume op 0) with
                | Finished, Finished -> agree () && drain ()
                | _ -> false))
      in
      let rec read_out pair =
        match read pair with
        | Some (R_progress _) -> read_out pair
        | Some (R_done _ | R_failed | R_cancelled) -> true
        | None -> false
      in
      List.for_all (fun s -> step s && agree ()) steps
      && drain ()
      && Array.for_all
           (function
             | Some ((_, ow) as pair) when not ow.Oracle_flights.w_detached ->
                 read_out pair
             | _ -> true)
           !waiters)

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
    ("props.flights", [ to_alcotest prop_flights ]);
  ]
