(* [Plan_cache] as it stood before the append-only plan log, kept
   verbatim as the oracle (only its value and stats types are
   re-exported from [Plan_cache], so results compare directly):
   [props.plan_log] runs random scripts against both stores and asserts
   every observable agrees, and the v1 fixture tests use it to write
   directories in the old layout — one [<fp>.plan] file per entry next
   to an [add]/[del] journal. *)

open Amos
open Amos_service

type value = Plan_cache.value =
  | Spatial of Mapping.t * Schedule.t
  | Scalar

type policy = Retain.policy

type stats = Plan_cache.stats = {
  hits : int;
  misses : int;
  stores : int;
  lru_evictions : int;
  budget_evictions : int;
  corrupt_evictions : int;
}

(* memory entries keep the serialized text, not the parsed plan: parsing
   through [Plan_io.load] on every hit is what re-runs the Algorithm-1
   validation against the operator actually being compiled *)
type meta = {
  accel_name : string;
  op_key : string option;
      (** accelerator-independent fingerprint; [None] for entries written
          before migration existed — they simply never migrate *)
  tuned_in : float option;
      (** tuning seconds recorded in the entry header; [None] for entries
          written before the cache economy existed *)
}

type entry = {
  kind : [ `Spatial of string (* Plan_io text *) | `Scalar ];
  meta : meta;
}

type t = {
  dir : string option;
  fs : Fs_io.t;
  clock : Clock.t;
  policy : policy;
  budget : Retain.budget;
  mem_capacity : int;
  mem : entry Retain.Table.t;
  index : unit Retain.Table.t;
      (** live on-disk fingerprints with their value accounting; each
          tier owns its items, and a hit stamps both through [touch] *)
  mutable eviction_log : (string * float * float) list;
      (** newest first: (fingerprint, victim score, lowest retained
          score) recorded at each budget eviction *)
  mutable journal_ops : int;  (** lines in the journal file *)
  mutable journal_bytes : int;
      (** journal size we have replayed; a mismatch with the file means
          another process appended (or compacted) behind our back *)
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable lru_evictions : int;
  mutable budget_evictions : int;
  mutable corrupt_evictions : int;
}

let dir t = t.dir
let fs_handle t = t.fs
let journal_path dir = Filename.concat dir "journal.txt"
let lock_path dir = Filename.concat dir "lock"
let entry_path dir fp = Filename.concat dir (fp ^ ".plan")
let quarantine_path dir fp = Filename.concat dir (fp ^ ".plan.quarantined")

(* Journal format version.  Stamped as the first line of every journal
   this code writes; replay accepts the stamp for the current version,
   accepts its absence (a legacy pre-versioning journal), and rejects
   any other claimed version with a typed error — peers about to
   exchange cache state must fail loudly on a format they do not
   speak, never misparse it as entry lines. *)
let journal_version = 1
let version_line = Printf.sprintf "amos-journal %d" journal_version

exception Unsupported_journal of { path : string; version : string }

let () =
  Printexc.register_printer (function
    | Unsupported_journal { path; version } ->
        Some
          (Printf.sprintf
             "unsupported plan-cache journal version %S in %s (want %d)"
             version path journal_version)
    | _ -> None)

(* journal line for a live entry, carrying its value accounting so a
   reopen does not have to stat or parse every entry file *)
let add_line fp (it : Retain.item) =
  Printf.sprintf "add %s %d %.6f" fp it.Retain.bytes it.Retain.tuning_seconds

let append_journal t line =
  match t.dir with
  | None -> ()
  | Some dir ->
      let path = journal_path dir in
      (* a journal born under this code gets its stamp before the first
         entry; two racing creators both stamping is harmless (replay
         accepts repeats of the current version) *)
      if not (Fs_io.exists t.fs path) then begin
        Fs_io.append_line t.fs path version_line;
        t.journal_bytes <- t.journal_bytes + String.length version_line + 1
      end;
      Fs_io.append_line t.fs path line;
      t.journal_ops <- t.journal_ops + 1;
      (* track our own append; if another process interleaved, the size
         mismatch makes the next [refresh] re-replay the whole file *)
      t.journal_bytes <- t.journal_bytes + String.length line + 1

(* full journal rewrite: callers must hold the directory lock *)
let write_journal fs dir index =
  let path = journal_path dir in
  let tmp = Fs_io.fresh_tmp path in
  let entries =
    Retain.Table.fold (fun fp () it acc -> (fp, it) :: acc) index []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let content =
    version_line ^ "\n"
    ^ String.concat ""
        (List.map (fun (fp, it) -> add_line fp it ^ "\n") entries)
  in
  Fs_io.write_file fs tmp content;
  Fs_io.rename fs tmp path

(* Replay the journal into [index].  Only complete (newline-terminated)
   lines count: a torn trailing line — a writer died mid-append — is
   reported, not parsed.  New-format adds carry bytes and tuning
   seconds; a legacy bare [add <fp>] is accounted from the entry file's
   size and the conservative default tuning cost.  [now] stamps
   last-access for every replayed entry (we cannot know better).
   Returns (ops, bytes_replayed, torn). *)
let replay_journal fs dir ~now index =
  let path = journal_path dir in
  if not (Fs_io.exists fs path) then (0, 0, false)
  else begin
    let text = Fs_io.read_file fs path in
    let complete, torn = Fs_io.complete_lines text in
    let ops = ref 0 in
    List.iter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ "amos-journal"; v ] ->
            (* the version stamp is not an op — it never counts toward
               compaction — and an unknown version aborts the replay
               before any line can be misread as an entry *)
            if v <> string_of_int journal_version then
              raise (Unsupported_journal { path; version = v })
        | parts ->
            (match parts with
            | [ "add"; fp ] ->
                (* legacy line from before the cache economy *)
                Retain.Table.set index fp ()
                  {
                    Retain.bytes = Fs_io.file_size fs (entry_path dir fp);
                    tuning_seconds = Retain.default_tuning_seconds;
                    last_access = now;
                  }
            | [ "add"; fp; b; s ] -> (
                match (int_of_string_opt b, float_of_string_opt s) with
                | Some bytes, Some tuning_seconds ->
                    Retain.Table.set index fp ()
                      { Retain.bytes; tuning_seconds; last_access = now }
                | _ -> () (* garbage line: ignore *))
            | [ "del"; fp ] -> Retain.Table.remove index fp
            | _ -> () (* garbage line (healed torn write): ignore *));
            incr ops)
      complete;
    (!ops, String.length text, torn)
  end

(* drop index entries whose file vanished behind our back *)
let drop_vanished fs dir index =
  Retain.Table.fold
    (fun fp () _ gone ->
      if Fs_io.exists fs (entry_path dir fp) then gone else fp :: gone)
    index []
  |> List.iter (Retain.Table.remove index)

let create ?(mem_capacity = 256) ?max_bytes ?max_tuning_seconds
    ?(policy = `Scored) ?clock ?fs ?dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let clock = match clock with Some c -> c | None -> Clock.real () in
  let budget = { Retain.max_bytes; max_tuning_seconds } in
  let index = Retain.Table.create () in
  let journal_ops = ref 0 in
  let journal_bytes = ref 0 in
  (match dir with
  | None -> ()
  | Some d ->
      Fs_io.mkdir_p fs d;
      let now = Clock.now clock in
      let ops, bytes, torn = replay_journal fs d ~now index in
      journal_ops := ops;
      journal_bytes := bytes;
      (* heal a torn trailing line by terminating it: the fragment
         becomes an ignorable garbage line instead of corrupting the
         next writer's append *)
      if torn then begin
        Fs_io.append_line fs (journal_path d) "";
        journal_bytes := !journal_bytes + 1
      end;
      drop_vanished fs d index;
      (* compact a journal bloated by dead add/del pairs (or by value
         re-stamps).  The rewrite happens under the directory lock,
         from a fresh replay, so a concurrent compactor cannot
         resurrect deleted entries. *)
      if !journal_ops > (2 * Retain.Table.length index) + 16 then
        Fs_io.with_lock fs (lock_path d) (fun () ->
            Retain.Table.reset index;
            let _, _, _ = replay_journal fs d ~now index in
            drop_vanished fs d index;
            write_journal fs d index;
            journal_ops := Retain.Table.length index;
            journal_bytes := Fs_io.file_size fs (journal_path d)));
  {
    dir;
    fs;
    clock;
    policy;
    budget;
    mem_capacity = max 1 mem_capacity;
    mem = Retain.Table.create ();
    index;
    eviction_log = [];
    journal_ops = !journal_ops;
    journal_bytes = !journal_bytes;
    hits = 0;
    misses = 0;
    stores = 0;
    lru_evictions = 0;
    budget_evictions = 0;
    corrupt_evictions = 0;
  }

let refresh t =
  match t.dir with
  | None -> ()
  | Some d ->
      let sz = Fs_io.file_size t.fs (journal_path d) in
      if sz <> t.journal_bytes then begin
        Retain.Table.reset t.index;
        let now = Clock.now t.clock in
        let ops, bytes, _torn = replay_journal t.fs d ~now t.index in
        drop_vanished t.fs d t.index;
        t.journal_ops <- ops;
        t.journal_bytes <- bytes
      end

(* a memory hit is an access in both tiers that hold the entry: stamp
   both, and return the memory tier's entry *)
let touch t fp =
  let now = Clock.now t.clock in
  let hit = Retain.Table.touch t.mem fp ~now in
  if Option.is_some hit then ignore (Retain.Table.touch t.index fp ~now);
  hit

(* evict before admitting, so a fresh entry is never its own victim *)
let mem_insert t fp entry it =
  if
    (not (Retain.Table.mem t.mem fp))
    && Retain.Table.length t.mem >= t.mem_capacity
  then
    Option.iter
      (fun (vfp, _) ->
        Retain.Table.remove t.mem vfp;
        t.lru_evictions <- t.lru_evictions + 1)
      (Retain.Table.victim t.policy ~now:(Clock.now t.clock) t.mem);
  Retain.Table.set t.mem fp entry it

(* --- disk layer ---------------------------------------------------- *)

let header_magic = "amos-plan-cache 1"

(* [opkey] and [tuned_in] are optional header lines: entries written
   before migration / the cache economy lack them, and [parse_entry]'s
   membership checks never require them — both directions of the format
   stay readable *)
let entry_content fp ~op_name ~meta kind =
  let body =
    match kind with
    | `Scalar -> "kind scalar\n---\n"
    | `Spatial text -> Printf.sprintf "kind spatial\n---\n%s" text
  in
  let opkey_line =
    match meta.op_key with
    | Some k -> Printf.sprintf "opkey %s\n" k
    | None -> ""
  in
  let tuned_line =
    match meta.tuned_in with
    | Some s -> Printf.sprintf "tuned_in %.6f\n" s
    | None -> ""
  in
  Printf.sprintf "%s\nfingerprint %s\nop %s\naccel %s\n%s%s%s" header_magic
    fp op_name meta.accel_name opkey_line tuned_line body

(* split an entry file's text into (header lines, body) *)
let split_entry content =
  let lines = String.split_on_char '\n' content in
  let rec split_header acc = function
    | "---" :: body -> Some (List.rev acc, String.concat "\n" body)
    | l :: rest -> split_header (l :: acc) rest
    | [] -> None
  in
  split_header [] lines

let header_field header key =
  List.find_map
    (fun l ->
      let prefix = key ^ " " in
      if String.length l > String.length prefix
         && String.sub l 0 (String.length prefix) = prefix
      then Some (String.sub l (String.length prefix)
                   (String.length l - String.length prefix))
      else None)
    header

let parse_entry fp content =
  match split_entry content with
  | Some (header, body)
    when List.mem header_magic header
         && List.mem ("fingerprint " ^ fp) header ->
      let meta =
        {
          accel_name =
            (match header_field header "accel" with Some a -> a | None -> "");
          op_key = header_field header "opkey";
          tuned_in =
            Option.bind (header_field header "tuned_in") float_of_string_opt;
        }
      in
      if List.mem "kind scalar" header then Some (`Scalar, meta)
      else if List.mem "kind spatial" header then Some (`Spatial body, meta)
      else None
  | Some _ | None -> None

(* [`Absent] / [`Unreadable] are transient conditions (vanished file, IO
   error): the lookup misses but the entry is left alone.  [`Invalid] is
   positive evidence of corruption and triggers eviction. *)
let read_entry fs dir fp =
  let path = entry_path dir fp in
  if not (Fs_io.exists fs path) then `Absent
  else
    match Fs_io.read_file fs path with
    | exception Unix.Unix_error _ -> `Unreadable
    | content -> (
        match parse_entry fp content with
        | Some (kind, meta) -> `Ok (kind, meta)
        | None -> `Invalid)

let evict_everywhere t fp =
  Retain.Table.remove t.mem fp;
  match t.dir with
  | None -> ()
  | Some d ->
      if Retain.Table.mem t.index fp then begin
        Retain.Table.remove t.index fp;
        (try Fs_io.remove t.fs (entry_path d fp) with Unix.Unix_error _ -> ());
        try append_journal t ("del " ^ fp) with Unix.Unix_error _ -> ()
      end

(* --- budget enforcement -------------------------------------------- *)

let eviction_log_cap = 512

let push_eviction t fp score min_retained =
  let log = (fp, score, min_retained) :: t.eviction_log in
  t.eviction_log <-
    (if List.length log > eviction_log_cap then
       List.filteri (fun i _ -> i < eviction_log_cap) log
     else log)

(* Evict lowest-retention entries (ties broken by fingerprint, for
   determinism) until the disk layer fits the budget again.  Under the
   [`Lru] baseline the victim is simply the least recently accessed
   entry — value-blind by construction, kept so the economy can be
   benchmarked against it on identical code paths. *)
let enforce_budgets t =
  let rec evict n =
    if
      not
        (Retain.over t.budget
           ~bytes:(Retain.Table.bytes t.index)
           ~tuning_seconds:(Retain.Table.tuning_seconds t.index))
    then n
    else
      let now = Clock.now t.clock in
      match Retain.Table.victim t.policy ~now t.index with
      | None -> n
      | Some (vfp, victim) ->
          evict_everywhere t vfp;
          t.budget_evictions <- t.budget_evictions + 1;
          (* the lowest score left is the next [`Scored] victim's *)
          let min_retained =
            match Retain.Table.victim `Scored ~now t.index with
            | Some (_, it) -> Retain.score ~now it
            | None -> infinity
          in
          push_eviction t vfp (Retain.score ~now victim) min_retained;
          evict (n + 1)
  in
  evict 0

let trim t =
  refresh t;
  enforce_budgets t

(* --- public API ----------------------------------------------------- *)

let validate ~accel ~op kind =
  match kind with
  | `Scalar -> Some Scalar
  | `Spatial text -> (
      match Plan_io.load accel op text with
      | Some (m, sched) -> Some (Spatial (m, sched))
      | None -> None)

let lookup t ~accel ~op ~budget =
  let fp = Fingerprint.key ~accel ~op ~budget in
  let kind =
    match touch t fp with
    | Some e -> Some e.kind
    | None -> (
        match t.dir with
        | Some d -> (
            (* absent from our view of the index: another process may
               have tuned and stored it since we last replayed *)
            if not (Retain.Table.mem t.index fp) then refresh t;
            match Retain.Table.item t.index fp with
            | None -> None
            | Some it -> (
                match read_entry t.fs d fp with
                | `Ok (kind, meta) ->
                    mem_insert t fp { kind; meta } it;
                    ignore (touch t fp);
                    Some kind
                | `Absent | `Unreadable -> None
                | `Invalid ->
                    t.corrupt_evictions <- t.corrupt_evictions + 1;
                    evict_everywhere t fp;
                    None))
        | None -> None)
  in
  match kind with
  | None ->
      t.misses <- t.misses + 1;
      None
  | Some kind -> (
      match validate ~accel ~op kind with
      | Some v ->
          t.hits <- t.hits + 1;
          Some v
      | None ->
          (* loaded but failed to re-bind / re-validate (Algorithm 1) *)
          t.corrupt_evictions <- t.corrupt_evictions + 1;
          evict_everywhere t fp;
          t.misses <- t.misses + 1;
          None)

(* Same-operator, different-accelerator fallback: every Spatial entry
   whose accelerator-independent [op_key] matches the request but whose
   fingerprint differs — i.e. the same computation tuned for a sibling
   accelerator.  Entries from before the [opkey] header existed carry no
   op_key and are naturally skipped.  Read-only: disk entries are
   inspected without touching the memory layer, so a wide scan cannot
   evict hot entries.  Sorted by (accelerator name, fingerprint) for
   determinism. *)
let lookup_migratable t ~accel ~op ~budget =
  let fp_here = Fingerprint.key ~accel ~op ~budget in
  let opk = Fingerprint.op_key ~op ~budget in
  refresh t;
  let candidate fp kind meta acc =
    match kind with
    | `Scalar -> acc
    | `Spatial text ->
        if
          fp <> fp_here
          && meta.op_key = Some opk
          && meta.accel_name <> accel.Accelerator.name
        then (meta.accel_name, fp, text) :: acc
        else acc
  in
  let from_mem =
    Retain.Table.fold
      (fun fp e _ acc -> candidate fp e.kind e.meta acc)
      t.mem []
  in
  let from_disk =
    match t.dir with
    | None -> []
    | Some d ->
        Retain.Table.fold
          (fun fp () _ acc ->
            if Retain.Table.mem t.mem fp then acc
            else
              match read_entry t.fs d fp with
              | `Ok (kind, meta) -> candidate fp kind meta acc
              | `Absent | `Unreadable | `Invalid -> acc)
          t.index []
  in
  List.sort compare (from_mem @ from_disk)
  |> List.map (fun (accel_name, fp, text) -> (fp, accel_name, text))

let store ?provenance ?tuning_seconds t ~accel ~op ~budget v =
  let fp = Fingerprint.key ~accel ~op ~budget in
  let ts =
    match tuning_seconds with
    | Some s -> Float.max 0. s
    | None -> Retain.default_tuning_seconds
  in
  let kind =
    match v with
    | Scalar -> `Scalar
    | Spatial (m, sched) ->
        `Spatial (Plan_io.save ?provenance ~tuning_seconds:ts m sched)
  in
  let meta =
    {
      accel_name = accel.Accelerator.name;
      op_key = Some (Fingerprint.op_key ~op ~budget);
      tuned_in = Some ts;
    }
  in
  let content = entry_content fp ~op_name:op.Amos_ir.Operator.name ~meta kind in
  let item =
    {
      Retain.bytes = String.length content;
      tuning_seconds = ts;
      last_access = Clock.now t.clock;
    }
  in
  mem_insert t fp { kind; meta } item;
  (match t.dir with
  | None -> ()
  | Some d ->
      (* entry file first (atomic tmp+rename), journal add second: a
         crash between the two leaves an orphan entry file that fsck
         adopts — never a journal line pointing at nothing served.  The
         index follows the file only once it landed.  An overwrite whose
         accounting changed re-stamps the add line so the persisted
         value follows the entry (later adds win on replay); an
         identical overwrite appends nothing. *)
      let target = entry_path d fp in
      let tmp = Fs_io.fresh_tmp target in
      Fs_io.write_file t.fs tmp content;
      Fs_io.rename t.fs tmp target;
      let unchanged =
        match Retain.Table.item t.index fp with
        | Some prev ->
            prev.Retain.bytes = item.Retain.bytes
            && prev.Retain.tuning_seconds = ts
        | None -> false
      in
      Retain.Table.set t.index fp () item;
      if not unchanged then append_journal t (add_line fp item);
      ignore (enforce_budgets t));
  t.stores <- t.stores + 1

let mem_size t = Retain.Table.length t.mem
let disk_size t = Retain.Table.length t.index
let disk_bytes t = Retain.Table.bytes t.index
let disk_tuning_seconds t = Retain.Table.tuning_seconds t.index
let info t ~fingerprint = Retain.Table.item t.index fingerprint

let eviction_log t = t.eviction_log

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    stores = t.stores;
    lru_evictions = t.lru_evictions;
    budget_evictions = t.budget_evictions;
    corrupt_evictions = t.corrupt_evictions;
  }

let clear t =
  Retain.Table.reset t.mem;
  (match t.dir with
  | None -> ()
  | Some d ->
      Fs_io.with_lock t.fs (lock_path d) (fun () ->
          (* include entries other processes added since our replay *)
          Retain.Table.reset t.index;
          let now = Clock.now t.clock in
          let _ = replay_journal t.fs d ~now t.index in
          Retain.Table.fold
            (fun fp () _ () ->
              try Fs_io.remove t.fs (entry_path d fp)
              with Unix.Unix_error _ -> ())
            t.index ();
          Retain.Table.reset t.index;
          write_journal t.fs d t.index;
          t.journal_ops <- 0;
          t.journal_bytes <- Fs_io.file_size t.fs (journal_path d)));
  t.eviction_log <- [];
  t.hits <- 0;
  t.misses <- 0;
  t.stores <- 0;
  t.lru_evictions <- 0;
  t.budget_evictions <- 0;
  t.corrupt_evictions <- 0

(* --- fsck ----------------------------------------------------------- *)

type fsck_report = {
  live : int;
  bytes : int;
  adopted : int;
  quarantined : int;
  unreadable : int;
  dropped : int;
  tmp_removed : int;
  torn_repaired : bool;
  quarantine_reclaimed : int;
  known_bad : int;
  obs_records : int;
  obs_skipped : int;
  obs_torn_repaired : bool;
}

(* the learned-model observation log living next to the plans
   ([Amos_learn.Obs_log.file_name] — the agreement is pinned by a test;
   the dependency can't point that way, learn sits above service).
   fsck only needs line-level integrity: count records, count junk,
   terminate a torn trailing fragment. *)
let obs_file_name = "observations.log"

let obs_line_is_record line =
  match String.split_on_char ' ' line with
  | "obs" :: _fp :: _accel :: (_ :: _ :: _ :: _ as numbers) ->
      List.for_all
        (fun s -> s = "" || float_of_string_opt s <> None)
        numbers
  | _ -> false

(* (records, skipped, torn) over the log text; the version stamp (an
   ["amos-obs"] first line, any version — fsck repairs, it does not
   enforce) counts as neither *)
let obs_scan_text text =
  let lines, torn = Fs_io.complete_lines text in
  let body =
    match lines with
    | first :: rest
      when String.length first >= 8 && String.sub first 0 8 = "amos-obs" ->
        rest
    | l -> l
  in
  let records, skipped =
    List.fold_left
      (fun (r, s) line ->
        if obs_line_is_record line then (r + 1, s) else (r, s + 1))
      (0, 0) body
  in
  (records, skipped, torn)

let fsck ?fs ?clock ?quarantine_ttl ~dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let clock = match clock with Some c -> c | None -> Clock.real () in
  if not (Fs_io.exists fs dir) then
    {
      live = 0;
      bytes = 0;
      adopted = 0;
      quarantined = 0;
      unreadable = 0;
      dropped = 0;
      tmp_removed = 0;
      torn_repaired = false;
      quarantine_reclaimed = 0;
      known_bad = 0;
      obs_records = 0;
      obs_skipped = 0;
      obs_torn_repaired = false;
    }
  else
    Fs_io.with_lock fs (lock_path dir) (fun () ->
        let index = Retain.Table.create () in
        let now = Clock.now clock in
        let _, _, torn = replay_journal fs dir ~now index in
        (* the rewritten journal's entries, accounted off the files
           themselves: actual size, and the tuning cost recorded in the
           entry header (the journal's figure is a fallback for
           pre-economy entries) *)
        let live = Retain.Table.create () in
        let adopted = ref 0
        and quarantined = ref 0
        and unreadable = ref 0
        and tmp_removed = ref 0
        and reclaimed = ref 0 in
        List.iter
          (fun name ->
            let path = Filename.concat dir name in
            if Fs_io.is_tmp name then begin
              (* abandoned by a crashed writer: targets were never
                 renamed into place, so the content is unreferenced.  A
                 failing remove leaves it for the next fsck. *)
              match Fs_io.remove fs path with
              | () -> incr tmp_removed
              | exception Unix.Unix_error _ -> ()
            end
            else if Filename.check_suffix name ".plan.quarantined" then begin
              (* TTL-based reclamation: quarantine preserves corrupt
                 plan content for post-mortems, but not forever.  Only
                 an explicit [quarantine_ttl] reclaims; the default
                 keeps everything.  A failing remove (fault injection,
                 permissions) leaves the file for the next fsck. *)
              match quarantine_ttl with
              | Some ttl when now -. Fs_io.mtime fs path > ttl -> (
                  match Fs_io.remove fs path with
                  | () -> incr reclaimed
                  | exception Unix.Unix_error _ -> ())
              | Some _ | None -> ()
            end
            else if Filename.check_suffix name ".plan" then begin
              let fp = Filename.chop_suffix name ".plan" in
              let journaled = Retain.Table.item index fp in
              match read_entry fs dir fp with
              | `Ok (_, meta) ->
                  (* no journal add: an orphan (crash between rename and
                     append) — adopt it *)
                  if journaled = None then incr adopted;
                  Retain.Table.set live fp ()
                    {
                      Retain.bytes = Fs_io.file_size fs path;
                      tuning_seconds =
                        (match (meta.tuned_in, journaled) with
                        | Some s, _ -> s
                        | None, Some it -> it.Retain.tuning_seconds
                        | None, None -> Retain.default_tuning_seconds);
                      last_access = now;
                    }
              | `Unreadable ->
                  (* an IO error is no evidence against the plan: keep
                     the file and its journal add as they stand; an
                     orphan waits for an fsck that can read it *)
                  incr unreadable;
                  Option.iter (Retain.Table.set live fp ()) journaled
              | `Invalid ->
                  (* positive corruption: quarantine, never serve *)
                  (try Fs_io.rename fs path (quarantine_path dir fp)
                   with Unix.Unix_error _ -> ());
                  Retain.Table.remove index fp;
                  incr quarantined
              | `Absent -> (* removed since the listing *) ()
            end)
          (Fs_io.list_dir fs dir);
        (* journal adds whose entry file is gone *)
        let dropped =
          Retain.Table.fold
            (fun fp () _ n -> if Retain.Table.mem live fp then n else n + 1)
            index 0
        in
        (* the rewrite repairs torn lines and compacts in one stroke *)
        write_journal fs dir live;
        let obs_records, obs_skipped, obs_torn =
          let path = Filename.concat dir obs_file_name in
          if not (Fs_io.exists fs path) then (0, 0, false)
          else
            match Fs_io.read_file fs path with
            | exception Unix.Unix_error _ -> (0, 0, false)
            | text ->
                let records, skipped, torn = obs_scan_text text in
                if torn then
                  (* terminate the fragment so later appends land on a
                     fresh line; a failing append leaves it for the
                     next fsck (readers skip it either way) *)
                  (try Fs_io.append_line fs path ""
                   with Unix.Unix_error _ -> ());
                (records, skipped, torn)
        in
        {
          live = Retain.Table.length live;
          bytes = Retain.Table.bytes live;
          adopted = !adopted;
          quarantined = !quarantined;
          unreadable = !unreadable;
          dropped;
          tmp_removed = !tmp_removed;
          torn_repaired = torn;
          quarantine_reclaimed = !reclaimed;
          known_bad = List.length (Badlist.list ~fs ~dir ());
          obs_records;
          obs_skipped;
          obs_torn_repaired = obs_torn;
        })

let describe_fsck r =
  Printf.sprintf
    "live entries     : %d\n\
     accounted bytes  : %d\n\
     adopted orphans  : %d\n\
     quarantined      : %d\n\
     unreadable       : %d\n\
     dropped adds     : %d\n\
     tmp files swept  : %d\n\
     torn journal     : %s\n\
     quarantine swept : %d\n\
     known-bad marks  : %d\n\
     observations     : %d (%d skipped, torn %s)\n"
    r.live r.bytes r.adopted r.quarantined r.unreadable r.dropped
    r.tmp_removed
    (if r.torn_repaired then "repaired" else "no")
    r.quarantine_reclaimed r.known_bad r.obs_records r.obs_skipped
    (if r.obs_torn_repaired then "repaired" else "no")

let fsck_clean r = r.quarantined = 0 && r.unreadable = 0 && r.dropped = 0
