(* The plan log ([journal.txt]) as tests read and vandalize it: the live
   records' entries, and every record rewritten.  A record is
   [add <fp> <bytes> <tuning_seconds> <digest> <entry>], the entry's
   newlines and backslashes escaped onto the line; [del <fp>] evicts. *)

let journal dir = Filename.concat dir "journal.txt"

let lines dir =
  if not (Sys.file_exists (journal dir)) then []
  else
    In_channel.with_open_bin (journal dir) In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")

let escape s =
  String.concat "\\\\" (String.split_on_char '\\' s)
  |> String.split_on_char '\n' |> String.concat "\\n"

let unescape s =
  let b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then
      if s.[i] = '\\' && i + 1 < String.length s then begin
        Buffer.add_char b (if s.[i + 1] = 'n' then '\n' else s.[i + 1]);
        go (i + 2)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* (fp, bytes, tuning_seconds, digest, escaped entry) *)
let record line =
  match String.split_on_char ' ' line with
  | "add" :: fp :: b :: s :: d :: (_ :: _ as entry) ->
      Some (fp, b, s, d, String.concat " " entry)
  | _ -> None

(* live (fingerprint, entry) pairs, sorted by fingerprint *)
let entries dir =
  let live = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match (record line, String.split_on_char ' ' line) with
      | Some (fp, _, _, _, e), _ -> Hashtbl.replace live fp (unescape e)
      | None, [ "del"; fp ] -> Hashtbl.remove live fp
      | None, _ -> ())
    (lines dir);
  List.sort compare (List.of_seq (Hashtbl.to_seq live))

(* what the accounting must add up to: the live entries' sizes *)
let entry_bytes dir =
  List.fold_left (fun n (_, e) -> n + String.length e) 0 (entries dir)

let render fp ~bytes ~seconds entry =
  Printf.sprintf "add %s %s %s %s %s" fp bytes seconds
    (Digest.to_hex (Digest.string entry))
    (escape entry)

(* rewrite every record's entry through [f fp entry], with a matching
   size and digest, so detection has to come from the entry itself *)
let map_entries dir f =
  let rewritten =
    List.map
      (fun line ->
        match record line with
        | Some (fp, _, s, _, e) ->
            let entry = f fp (unescape e) in
            render fp ~bytes:(string_of_int (String.length entry)) ~seconds:s
              entry
        | None -> line)
      (lines dir)
  in
  Out_channel.with_open_bin (journal dir) (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) rewritten)

(* every live record's entry replaced by text no header check accepts *)
let garble dir = map_entries dir (fun _ _ -> "garbage: not a plan header\n")

let plan_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".plan")

let quarantine_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".plan.quarantined")

(* a flat directory copied to a fresh temp directory *)
let copy_dir src =
  let dst = Temp.dir "amos-fixture" in
  Array.iter
    (fun f ->
      let text =
        In_channel.with_open_bin (Filename.concat src f) In_channel.input_all
      in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
          output_string oc text))
    (Sys.readdir src);
  dst
