open Amos_ir

type provenance = {
  source_accel : string;
  source_fingerprint : string;
}

(* A plan text read once, before it meets an operator: every field
   [bind] needs, by name.  [assign] holds the pairs later-first, so
   [List.assoc_opt] finds the one that wins; [splits] holds the
   well-formed [split] lines in text order, so it finds the first. *)
type plan = {
  intrinsic : string;
  iters : string list option;
  src_perm : int array;
  assign : (string * string) list;
  splits : (string * Schedule.split) list;
  stage_depth : int;
  unroll : int;
  vectorize : bool;
}

let rec distinct = function
  | [] -> true
  | n :: rest -> (not (List.exists (String.equal n) rest)) && distinct rest

(* The saved operator's iteration names, in order, when each is one
   distinct token and so reads back as written; other operators bind by
   name, as every plan did before the line existed. *)
let add_iters b (op : Operator.t) =
  let names = List.map (fun (it : Iter.t) -> it.Iter.name) op.Operator.iters in
  let token s =
    String.length s > 0 && String.for_all (fun c -> c <> ' ' && c <> '\n') s
  in
  if List.for_all token names && distinct names then begin
    Buffer.add_string b "iters";
    List.iter
      (fun n ->
        Buffer.add_char b ' ';
        Buffer.add_string b n)
      names;
    Buffer.add_char b '\n'
  end

let save ?provenance ?tuning_seconds (m : Mapping.t) (sched : Schedule.t) =
  let matching = m.Mapping.matching in
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "intrinsic %s\n" matching.Matching.intr.Intrinsic.name);
  (* provenance, tuning cost and iteration names ride as extra header
     lines: [parse] reads only the keys it knows, so plans saved with
     them still parse under older readers and vice versa *)
  (match provenance with
  | Some p ->
      Buffer.add_string b
        (Printf.sprintf "provenance %s %s\n" p.source_fingerprint
           p.source_accel)
  | None -> ());
  (match tuning_seconds with
  | Some s -> Buffer.add_string b (Printf.sprintf "tuned_in %.6f\n" s)
  | None -> ());
  add_iters b matching.Matching.view.Mac_view.op;
  Buffer.add_string b
    (Printf.sprintf "src_perm %s\n"
       (String.concat ","
          (Array.to_list (Array.map string_of_int matching.Matching.src_perm))));
  let assigns =
    List.filter_map
      (fun ((s : Iter.t), (k : Iter.t)) ->
        Some (Printf.sprintf "%s=%s" s.Iter.name k.Iter.name))
      (Matching.mapped matching)
  in
  Buffer.add_string b (Printf.sprintf "assign %s\n" (String.concat " " assigns));
  List.iteri
    (fun i (d : Schedule.dim) ->
      let sp = sched.Schedule.splits.(i) in
      Buffer.add_string b
        (Printf.sprintf "split %s %d %d %d\n" d.Schedule.name sp.Schedule.block
           sp.Schedule.subcore sp.Schedule.serial))
    (Schedule.dims m);
  Buffer.add_string b (Printf.sprintf "stage %d\n" sched.Schedule.stage_depth);
  Buffer.add_string b (Printf.sprintf "unroll %d\n" sched.Schedule.unroll);
  Buffer.add_string b
    (Printf.sprintf "vectorize %b\n" sched.Schedule.vectorize);
  Buffer.contents b

let split_ws line =
  String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

let provenance text =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         match split_ws l with
         | "provenance" :: fp :: rest when rest <> [] ->
             Some
               { source_fingerprint = fp; source_accel = String.concat " " rest }
         | _ -> None)

let tuning_seconds text =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         match split_ws l with
         | [ "tuned_in"; s ] -> float_of_string_opt s
         | _ -> None)

(* each of [0 .. n-1] exactly once *)
let permutation a =
  List.sort compare (Array.to_list a) = List.init (Array.length a) Fun.id

let parse text =
  (* one pass, each line tokenized once; the first line of a key counts,
     and a malformed [split] line is passed over for a later one *)
  let intrinsic = ref None and iters = ref None and src_perm = ref None
  and assign = ref None and stage = ref None and unroll = ref None
  and vectorize = ref None and splits = ref [] in
  let first r v = if Option.is_none !r then r := Some v in
  List.iter
    (fun line ->
      match split_ws line with
      | "intrinsic" :: rest -> first intrinsic rest
      | "iters" :: rest -> first iters rest
      | "src_perm" :: rest -> first src_perm rest
      | "assign" :: rest -> first assign rest
      | "stage" :: rest -> first stage rest
      | "unroll" :: rest -> first unroll rest
      | "vectorize" :: rest -> first vectorize rest
      | [ "split"; name; b; w; s ] -> (
          match (int_of_string_opt b, int_of_string_opt w, int_of_string_opt s) with
          | Some block, Some subcore, Some serial ->
              splits := (name, { Schedule.block; subcore; serial }) :: !splits
          | _ -> ())
      | _ -> ())
    (String.split_on_char '\n' text);
  let ( let* ) = Option.bind in
  let one field conv =
    let* v = field in
    match v with [ x ] -> conv x | _ -> None
  in
  let* intrinsic = Option.map (String.concat " ") !intrinsic in
  let* () =
    match !iters with
    | Some names when names = [] || not (distinct names) -> None
    | Some _ | None -> Some ()
  in
  let* src_perm =
    one !src_perm (fun s ->
        match List.map int_of_string (String.split_on_char ',' s) with
        | l -> Some (Array.of_list l)
        | exception Failure _ -> None)
  in
  let* () = if permutation src_perm then Some () else None in
  let* assign =
    let* tokens = !assign in
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        match String.split_on_char '=' s with
        | [ sw; k ] -> Some ((sw, k) :: acc)
        | _ -> None)
      (Some []) tokens
  in
  let* stage_depth = one !stage int_of_string_opt in
  let* unroll = one !unroll int_of_string_opt in
  let* vectorize = one !vectorize bool_of_string_opt in
  Some
    {
      intrinsic;
      iters = !iters;
      src_perm;
      assign;
      splits = List.rev !splits;
      stage_depth;
      unroll;
      vectorize;
    }

let bind accel (op : Operator.t) p =
  let ( let* ) = Option.bind in
  let* intr =
    List.find_opt
      (fun (i : Intrinsic.t) -> i.Intrinsic.name = p.intrinsic)
      accel.Accelerator.intrinsics
  in
  let* view = Mac_view.of_operator op in
  (* the name each of the operator's iterations has in the plan: the
     saved operator's at its position, or, for a plan without an
     [iters] line, its own *)
  let* names =
    match p.iters with
    | None -> Some (List.map (fun (it : Iter.t) -> it.Iter.name) op.Operator.iters)
    | Some names ->
        if List.compare_lengths names op.Operator.iters = 0 then Some names
        else None
  in
  let intr_iter name =
    List.find_opt
      (fun (k : Iter.t) -> k.Iter.name = name)
      intr.Intrinsic.compute.Compute_abs.iters
  in
  (* every named assignment must resolve *)
  let resolved =
    List.for_all
      (fun (sw, k) -> List.mem sw names && intr_iter k <> None)
      p.assign
  in
  if not resolved then None
  else
    let assign =
      Array.of_list
        (List.map
           (fun name -> Option.bind (List.assoc_opt name p.assign) intr_iter)
           names)
    in
    let* matching =
      match Matching.create ~view ~intr ~src_perm:p.src_perm ~assign with
      | m -> if Matching.validate m then Some m else None
      | exception Invalid_argument _ -> None
    in
    let mapping = Mapping.make matching in
    let dims = Schedule.dims mapping in
    (* an outer iteration's split is filed under its plan name, a tile
       loop's under its intrinsic iteration *)
    let named = List.combine op.Operator.iters names in
    let plan_name (d : Schedule.dim) =
      match d.Schedule.origin with
      | `Outer_sw it ->
          List.find_map
            (fun (it', name) -> if Iter.equal it it' then Some name else None)
            named
      | `Tile _ -> Some d.Schedule.name
    in
    let* splits =
      List.fold_right
        (fun d acc ->
          let* acc = acc in
          let* name = plan_name d in
          let* split = List.assoc_opt name p.splits in
          Some (split :: acc))
        dims (Some [])
    in
    let sched =
      {
        Schedule.splits = Array.of_list splits;
        stage_depth = p.stage_depth;
        unroll = p.unroll;
        vectorize = p.vectorize;
      }
    in
    if Schedule.validate_dims dims sched then Some (mapping, sched) else None

let load accel op text = Option.bind (parse text) (bind accel op)
