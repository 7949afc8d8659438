(* In-memory span recorder for the traced run.

   Spans are recorded only in the benchmark's own code, around calls into
   the program's public functions.  Each span has a name, start and end
   (wall-clock seconds), the span that caused it, and the id of the
   request or compiled operator it belongs to.  Nothing is written until
   [dump], so recording costs one record allocation per span. *)

type span = {
  sid : int;
  name : string;
  rid : int;  (** request / operator id; -1 outside any *)
  parent : int;  (** sid of the enclosing span; -1 at top level *)
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_sid = ref 0
let stack : (int * int) list ref = ref [] (* (sid, rid) of open spans *)

let current_rid () = match !stack with (_, rid) :: _ -> rid | [] -> -1
let current_parent () = match !stack with (sid, _) :: _ -> sid | [] -> -1

(* a finished span whose interval is already known, under the current
   parent (e.g. the two phases of a genetic search split at its last
   generation tick) *)
let record ?rid name ~start ~stop =
  if !enabled then begin
    let rid = match rid with Some r -> r | None -> current_rid () in
    incr next_sid;
    spans :=
      { sid = !next_sid; name; rid; parent = current_parent (); start; stop }
      :: !spans
  end

let span ?rid name f =
  if not !enabled then f ()
  else begin
    let rid = match rid with Some r -> r | None -> current_rid () in
    incr next_sid;
    let sid = !next_sid and parent = current_parent () in
    stack := (sid, rid) :: !stack;
    let start = Unix.gettimeofday () in
    let finish () =
      stack := List.tl !stack;
      spans :=
        { sid; name; rid; parent; start; stop = Unix.gettimeofday () }
        :: !spans
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let with_tracing f =
  enabled := true;
  Fun.protect ~finally:(fun () -> enabled := false) f

(* The tracing overhead: untraced and traced executions of the same
   work, back to back, alternating which goes first so that drift in
   machine speed and cache warmth cancel. *)
let untraced_s = ref 0.
let traced_s = ref 0.

let side ~trace f =
  let t0 = Unix.gettimeofday () in
  let v = if trace then with_tracing f else f () in
  let dt = Unix.gettimeofday () -. t0 in
  if trace then traced_s := !traced_s +. dt else untraced_s := !untraced_s +. dt;
  v

let flip = ref false

let ab ~untraced ~traced =
  flip := not !flip;
  if !flip then
    let u = side ~trace:false untraced in
    (u, side ~trace:true traced)
  else
    let t = side ~trace:true traced in
    (side ~trace:false untraced, t)

let overhead_pct () = 100. *. ((!traced_s /. !untraced_s) -. 1.)

let duration s = s.stop -. s.start

(* total duration and self time (duration minus the children's) of every
   span with this name *)
let totals name =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    !spans;
  List.fold_left
    (fun (total, self, n) s ->
      if s.name = name then
        let kids = Option.value (Hashtbl.find_opt children s.sid) ~default:0. in
        (total +. duration s, self +. duration s -. kids, n + 1)
      else (total, self, n))
    (0., 0., 0) !spans

let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s) else None)
    !spans

(* Chrome trace-event JSON (viewable in Perfetto), one complete event per
   span, oldest first *)
let dump path =
  let t0 =
    List.fold_left (fun acc s -> Float.min acc s.start) infinity !spans
  in
  let us x = (x -. t0) *. 1e6 in
  let events =
    List.rev_map
      (fun s ->
        Amos_server.Json.Obj
          [
            ("name", String s.name);
            ("ph", String "X");
            ("pid", Int 1);
            ("tid", Int 1);
            ("ts", Float (us s.start));
            ("dur", Float (us s.stop -. us s.start));
            ( "args",
              Obj
                [ ("sid", Int s.sid); ("parent", Int s.parent); ("id", Int s.rid) ]
            );
          ])
      !spans
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (Amos_server.Json.to_string
           (Obj [ ("traceEvents", List events) ])))
