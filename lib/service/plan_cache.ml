open Amos

type value =
  | Spatial of Mapping.t * Schedule.t
  | Scalar

type policy = Retain.policy

type stats = {
  hits : int;
  misses : int;
  stores : int;
  lru_evictions : int;
  budget_evictions : int;
  corrupt_evictions : int;
}

type meta = {
  accel_name : string;
  op_key : string option;
      (** accelerator-independent fingerprint; [None] for entries written
          before migration existed — they simply never migrate *)
  tuned_in : float option;
      (** tuning seconds recorded in the entry header; [None] for entries
          written before the cache economy existed *)
}

(* A memory entry keeps its plan's text, which [lookup_migratable] hands
   out, beside the text parsed: a disk-tier hit parses it on admission,
   a store on the entry's first hit, and never again.  What the parse
   holds is the same for every operator, so each hit still binds it to
   the operator in hand through [Plan_io.bind], which re-runs the
   Algorithm-1 validation and the schedule check. *)
type entry = {
  kind : [ `Spatial of string * Plan_io.plan option Lazy.t | `Scalar ];
  meta : meta;
}

let resident = function
  | `Scalar -> `Scalar
  | `Spatial text -> `Spatial (text, lazy (Plan_io.parse text))

(* where a live record's line sits in the journal (without its newline)
   and its entry's digest; a compaction moves [off] in place *)
type loc = { mutable off : int; len : int; digest : string }

type t = {
  dir : string option;
  fs : Fs_io.t;
  clock : Clock.t;
  policy : policy;
  budget : Retain.budget;
  mem_capacity : int;
  mutex : Mutex.t;
      (** shared by every handle on this directory in this process:
          [lockf] excludes processes, not handles *)
  mem : entry Retain.Table.t;
  mutable index : loc Retain.Table.t;
      (** live records with their value accounting; each tier owns its
          items, and a hit stamps both through [touch] *)
  mutable eviction_log : (string * float * float) list;
      (** newest first: (fingerprint, victim score, lowest retained
          score) recorded at each budget eviction *)
  mutable stamped : bool;  (** the journal carries this version's stamp *)
  mutable journal_ops : int;  (** record and del lines in the journal *)
  mutable journal_bytes : int;  (** where our replay stopped *)
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
let quarantine_suffix = ".plan.quarantined"
let quarantine_path dir fp = Filename.concat dir (fp ^ quarantine_suffix)

(* Journal format version.  Stamped as the first line of every journal
   this code writes; replay accepts repeats of the stamp and rejects any
   other claimed version with a typed error — peers about to exchange
   cache state must fail loudly on a format they do not speak, never
   misparse it.  Version 1 (and the unstamped journal before it) kept
   each plan in its own file; [import] converts such a directory. *)
let journal_version = 2
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

let dir_mutexes = Hashtbl.create 8
let dir_mutexes_mu = Mutex.create ()

let dir_mutex dir =
  let key = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  Mutex.protect dir_mutexes_mu (fun () ->
      match Hashtbl.find_opt dir_mutexes key with
      | Some m -> m
      | None ->
          let m = Mutex.create () in
          Hashtbl.add dir_mutexes key m;
          m)

(* appends and rewrites run under both: the mutex excludes the other
   handles of this process, [lockf] the other processes *)
let with_lock t dir f =
  Mutex.protect t.mutex (fun () ->
      Fs_io.with_lock t.fs (Filename.concat dir "lock") f)

(* --- entries --------------------------------------------------------- *)

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

(* split an entry's text into (header lines, body) *)
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

(* --- records ---------------------------------------------------------- *)

(* A record is one line, [add <fp> <bytes> <tuning_seconds> <digest>
   <entry>]: the entry escaped onto it (newline as [\n], backslash as
   [\\]), [<digest>] the hex MD5 of the unescaped entry.  An eviction is
   [del <fp>]; later lines win on replay. *)

let escape s =
  let b = Buffer.create (String.length s + 64) in
  String.iter
    (function
      | '\n' -> Buffer.add_string b "\\n"
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let unescape text pos stop =
  let b = Buffer.create (stop - pos) in
  let rec go i =
    match String.index_from_opt text i '\\' with
    | Some j when j < stop ->
        Buffer.add_substring b text i (j - i);
        if j + 1 < stop && (text.[j + 1] = 'n' || text.[j + 1] = '\\') then begin
          Buffer.add_char b (if text.[j + 1] = 'n' then '\n' else '\\');
          go (j + 2)
        end
        else None
    | Some _ | None ->
        Buffer.add_substring b text i (stop - i);
        Some (Buffer.contents b)
  in
  go pos

let digest_hex s = Digest.to_hex (Digest.string s)

let record_line fp (it : Retain.item) entry =
  Printf.sprintf "add %s %d %.6f %s %s" fp it.Retain.bytes
    it.Retain.tuning_seconds (digest_hex entry) (escape entry)

(* the line [text.[pos..stop)]; a record's entry is left in place,
   starting at the returned position *)
let parse_line text pos stop =
  let token pos =
    let i =
      match String.index_from_opt text pos ' ' with
      | Some i when i < stop -> i
      | _ -> stop
    in
    (String.sub text pos (i - pos), min stop (i + 1))
  in
  let head, p = token pos in
  let arg, p = token p in
  match head with
  | "add" -> (
      let bytes, p = token p in
      let ts, p = token p in
      let digest, p = token p in
      match (int_of_string_opt bytes, float_of_string_opt ts) with
      | Some bytes, Some ts when String.length digest = 32 && p < stop ->
          `Add (arg, bytes, ts, digest, p)
      | _ -> `Junk)
  | "del" -> `Del arg
  | "amos-journal" -> `Stamp arg
  | _ -> `Junk

(* the record for [fp] at [text.[pos..stop)]: [`Stale] when the line is
   not the record the index expects ([digest]), [`Corrupt] (with the
   damaged entry) when it is but its entry fails the digest or the
   header check *)
let decode fp ~digest text pos stop =
  match parse_line text pos stop with
  | `Add (fp', _, _, d, epos) when fp' = fp && d = digest -> (
      match unescape text epos stop with
      | Some entry when digest_hex entry = d -> (
          match parse_entry fp entry with
          | Some (kind, meta) -> `Ok (entry, kind, meta)
          | None -> `Corrupt entry)
      | Some entry -> `Corrupt entry
      | None -> `Corrupt (String.sub text epos (stop - epos)))
  | `Add _ | `Del _ | `Stamp _ | `Junk -> `Stale

(* --- replay ----------------------------------------------------------- *)

(* Apply every complete line of [text] (at file offset [base]) from
   [pos] to the index, and note where the view ends.  An add keeps the
   access stamp [prev] knew the entry by, else [now].  Returns whether a
   torn fragment (a writer died mid-append) follows the last line. *)
let apply_lines t ~path ~now ~prev text ~base pos =
  let rec go pos =
    match String.index_from_opt text pos '\n' with
    | None ->
        t.journal_bytes <- base + pos;
        pos < String.length text
    | Some stop ->
        (match parse_line text pos stop with
        | `Stamp v when v = string_of_int journal_version -> t.stamped <- true
        | `Stamp version ->
            (* an unknown version aborts the replay before any line can
               be misread *)
            raise (Unsupported_journal { path; version })
        | `Add (fp, bytes, tuning_seconds, digest, _) ->
            let last_access =
              match Retain.Table.item prev fp with
              | Some it -> it.Retain.last_access
              | None -> now
            in
            Retain.Table.set t.index fp
              { off = base + pos; len = stop - pos; digest }
              { Retain.bytes; tuning_seconds; last_access };
            t.journal_ops <- t.journal_ops + 1
        | `Del fp ->
            Retain.Table.remove t.index fp;
            t.journal_ops <- t.journal_ops + 1
        | `Junk -> if stop > pos then t.journal_ops <- t.journal_ops + 1);
        go (stop + 1)
  in
  go pos

let replay_all t ~path ~now text =
  let prev = t.index in
  t.index <- Retain.Table.create ();
  t.stamped <- false;
  t.journal_ops <- 0;
  apply_lines t ~path ~now ~prev text ~base:0 0

(* (text, torn, legacy): a journal with lines but no stamp, or stamped
   1, predates the log *)
let replay_file t ~path ~now =
  let text = if Fs_io.exists t.fs path then Fs_io.read_file t.fs path else "" in
  match replay_all t ~path ~now text with
  | torn -> (text, torn, (not t.stamped) && t.journal_bytes > 0)
  | exception Unsupported_journal { version = "1"; _ } -> (text, false, true)

(* --- rewrites: compaction, clear, fsck, import ------------------------ *)

let rewrite fs path lines =
  let tmp = Fs_io.fresh_tmp path in
  Fs_io.write_file fs tmp (String.concat "\n" (version_line :: lines) ^ "\n");
  Fs_io.rename fs tmp path

let bloated t = t.journal_ops > (2 * Retain.Table.length t.index) + 16

(* Rewrite the journal as its stamp plus the live records in journal
   order, dropping dead records and any torn tail.  The caller holds the
   lock; the live set comes from a fresh replay of the file, so a stale
   view or a concurrent compactor's work can never be undone, and each
   offset moves in place, so the accounting stays exactly as it was. *)
let compact t d =
  let path = journal_path d in
  let text = Fs_io.read_file t.fs path in
  ignore (replay_all t ~path ~now:(Clock.now t.clock) text);
  let live =
    Retain.Table.fold (fun _ loc _ acc -> loc :: acc) t.index []
    |> List.sort (fun a b -> compare a.off b.off)
  in
  rewrite t.fs path (List.map (fun l -> String.sub text l.off l.len) live);
  t.journal_bytes <-
    List.fold_left
      (fun off l ->
        l.off <- off;
        off + l.len + 1)
      (String.length version_line + 1)
      live;
  t.stamped <- true;
  t.journal_ops <- List.length live

(* Read what other handles and processes appended since our replay: the
   tail past [journal_bytes], complete lines only.  A journal that
   shrank, or whose tail does not start on a line boundary, was
   compacted behind our back and is replayed whole.  [heal] (under the
   lock) rewrites a torn tail away, so the fragment can never absorb the
   next writer's record. *)
let catch_up t d ~heal =
  let path = journal_path d in
  let size = Fs_io.file_size t.fs path in
  if size <> t.journal_bytes then begin
    let now = Clock.now t.clock in
    let from = max 0 (t.journal_bytes - 1) in
    let tail =
      if size > t.journal_bytes then
        Fs_io.read_at t.fs path ~off:from ~len:(size - from)
      else ""
    in
    let torn =
      if tail <> "" && (t.journal_bytes = 0 || tail.[0] = '\n') then
        apply_lines t ~path ~now ~prev:t.index tail ~base:from
          (t.journal_bytes - from)
      else replay_all t ~path ~now (Fs_io.read_file t.fs path)
    in
    if heal && torn then compact t d
  end

(* The one reader of the version-1 layout, run once under the lock: the
   journal's add/del lines name the live plans, each in its own
   [<fp>.plan] file.  Each live file is copied verbatim into a record
   carrying the accounting version 1 gave it (a bare [add <fp>]: the
   file's size and the default tuning cost); an add whose file is gone
   is dropped.  Files the journal does not vouch for are set aside as
   quarantine first; one rename then switches the directory over, and
   the copied files go last — a crash at any step leaves a directory
   that reopens and serves every plan.  A read error aborts the import
   before anything moved. *)
let import fs dir ~now text =
  let accounted = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "add"; fp ] -> Hashtbl.replace accounted fp None
      | [ "add"; fp; b; s ] -> (
          match (int_of_string_opt b, float_of_string_opt s) with
          | Some b, Some s -> Hashtbl.replace accounted fp (Some (b, s))
          | _ -> ())
      | [ "del"; fp ] -> Hashtbl.remove accounted fp
      | _ -> ())
    (fst (Fs_io.complete_lines text));
  let path name = Filename.concat dir name in
  let files, strays =
    List.filter (fun n -> Filename.check_suffix n ".plan") (Fs_io.list_dir fs dir)
    |> List.sort compare
    |> List.partition (fun n ->
           Hashtbl.mem accounted (Filename.chop_suffix n ".plan"))
  in
  let records =
    List.map
      (fun name ->
        let fp = Filename.chop_suffix name ".plan" in
        let entry = Fs_io.read_file fs (path name) in
        let bytes, tuning_seconds =
          match Hashtbl.find accounted fp with
          | Some acct -> acct
          | None -> (String.length entry, Retain.default_tuning_seconds)
        in
        record_line fp { Retain.bytes; tuning_seconds; last_access = now } entry)
      files
  in
  List.iter (fun n -> Fs_io.rename fs (path n) (path n ^ ".quarantined")) strays;
  rewrite fs (journal_path dir) records;
  List.iter (fun n -> Fs_io.remove fs (path n)) files

(* replay under the lock, importing a version-1 directory first *)
let settle t d ~now =
  let path = journal_path d in
  let text, torn, legacy = replay_file t ~path ~now in
  if not legacy then (text, torn)
  else begin
    import t.fs d ~now text;
    let text, torn, _ = replay_file t ~path ~now in
    (text, torn)
  end

(* --- opening ---------------------------------------------------------- *)

let blank ?(mem_capacity = 256) ?max_bytes ?max_tuning_seconds
    ?(policy = `Scored) ~fs ~clock dir =
  {
    dir;
    fs;
    clock;
    policy;
    budget = { Retain.max_bytes; max_tuning_seconds };
    mem_capacity = max 1 mem_capacity;
    mutex = (match dir with Some d -> dir_mutex d | None -> Mutex.create ());
    mem = Retain.Table.create ();
    index = Retain.Table.create ();
    eviction_log = [];
    stamped = false;
    journal_ops = 0;
    journal_bytes = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    lru_evictions = 0;
    budget_evictions = 0;
    corrupt_evictions = 0;
  }

let create ?mem_capacity ?max_bytes ?max_tuning_seconds ?policy ?clock ?fs
    ?dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let clock = match clock with Some c -> c | None -> Clock.real () in
  let t =
    blank ?mem_capacity ?max_bytes ?max_tuning_seconds ?policy ~fs ~clock dir
  in
  Option.iter
    (fun d ->
      Fs_io.mkdir_p fs d;
      (* replay without the lock; an old journal, a torn tail or a
         bloated journal take it, and are settled from a fresh replay *)
      let now = Clock.now clock in
      let _, torn, legacy = replay_file t ~path:(journal_path d) ~now in
      if legacy || torn || bloated t then
        with_lock t d (fun () ->
            ignore (settle t d ~now);
            catch_up t d ~heal:true;
            if bloated t then compact t d))
    dir;
  t

let refresh t = Option.iter (fun d -> catch_up t d ~heal:false) t.dir

(* One append under the lock, after catching up so the offset [landed]
   records is the file's; a fresh journal's stamp rides in the same
   write.  A journal bloated by dead records is compacted while the lock
   is held, so a long-running handle bounds the directory too. *)
let append t d line ~landed =
  with_lock t d (fun () ->
      catch_up t d ~heal:true;
      let payload = if t.stamped then line else version_line ^ "\n" ^ line in
      Fs_io.append_line t.fs (journal_path d) payload;
      let off = t.journal_bytes + String.length payload - String.length line in
      t.stamped <- true;
      t.journal_ops <- t.journal_ops + 1;
      t.journal_bytes <- off + String.length line + 1;
      landed off;
      if bloated t then try compact t d with Unix.Unix_error _ -> ())

(* a memory hit is an access in both tiers that hold the entry: stamp
   both, and return the memory tier's entry *)
let touch t fp =
  let now = Clock.now t.clock in
  let hit = Retain.Table.touch t.mem fp ~now in
  if Option.is_some hit then ignore (Retain.Table.touch t.index fp ~now);
  hit

(* an index entry without stamping an access: re-stamping it with its
   own last access changes nothing *)
let locate t fp =
  Option.bind (Retain.Table.item t.index fp) (fun it ->
      Option.map
        (fun loc -> (loc, it))
        (Retain.Table.touch t.index fp ~now:it.Retain.last_access))

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

(* --- disk layer ------------------------------------------------------- *)

(* one positioned read of the record.  [`Unreadable] (an IO error) is
   transient: the lookup misses but the record is left alone;
   [`Corrupt] is positive evidence and triggers eviction. *)
let read_record t d fp loc =
  match Fs_io.read_at t.fs (journal_path d) ~off:loc.off ~len:loc.len with
  | exception Unix.Unix_error _ -> `Unreadable
  | line -> decode fp ~digest:loc.digest line 0 (String.length line)

let evict_everywhere t fp =
  Retain.Table.remove t.mem fp;
  match t.dir with
  | None -> ()
  | Some d ->
      if Retain.Table.mem t.index fp then begin
        Retain.Table.remove t.index fp;
        try append t d ("del " ^ fp) ~landed:ignore
        with Unix.Unix_error _ -> ()
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
  | `Spatial (_, plan) -> (
      match Option.bind (Lazy.force plan) (Plan_io.bind accel op) with
      | Some (m, sched) -> Some (Spatial (m, sched))
      | None -> None)

let lookup t ~accel ~op ~budget =
  let fp = Fingerprint.key ~accel ~op ~budget in
  (* an offset made stale by another handle's compaction replays the
     journal once and retries *)
  let rec from_disk d ~retry =
    match locate t fp with
    | None -> None
    | Some (loc, it) -> (
        match read_record t d fp loc with
        | `Ok (_, kind, meta) ->
            let kind = resident kind in
            mem_insert t fp { kind; meta } it;
            ignore (touch t fp);
            Some kind
        | `Stale when retry -> (
            let path = journal_path d in
            match Fs_io.read_file t.fs path with
            | text ->
                ignore (replay_all t ~path ~now:(Clock.now t.clock) text);
                from_disk d ~retry:false
            | exception Unix.Unix_error _ -> None)
        | `Unreadable | `Stale -> None
        | `Corrupt _ ->
            t.corrupt_evictions <- t.corrupt_evictions + 1;
            evict_everywhere t fp;
            None)
  in
  let kind =
    match touch t fp with
    | Some e -> Some e.kind
    | None -> (
        match t.dir with
        | Some d ->
            (* absent from our view of the index: another process may
               have tuned and stored it since we last read *)
            if not (Retain.Table.mem t.index fp) then refresh t;
            from_disk d ~retry:true
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
   op_key and are naturally skipped.  Read-only: disk records are
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
      (fun fp e _ acc ->
        let kind =
          match e.kind with `Spatial (text, _) -> `Spatial text | `Scalar -> `Scalar
        in
        candidate fp kind e.meta acc)
      t.mem []
  in
  let from_disk =
    match t.dir with
    | None -> []
    | Some d ->
        Retain.Table.fold
          (fun fp loc _ acc ->
            if Retain.Table.mem t.mem fp then acc
            else
              match read_record t d fp loc with
              | `Ok (_, kind, meta) -> candidate fp kind meta acc
              | `Unreadable | `Stale | `Corrupt _ -> acc)
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
  mem_insert t fp { kind = resident kind; meta } item;
  (match t.dir with
  | None -> ()
  | Some d ->
      (* one record carries the plan and its accounting: a crash leaves
         it whole or a torn tail replay skips.  The index follows the
         record only once it landed; an identical overwrite appends
         nothing. *)
      let digest = digest_hex content in
      (match locate t fp with
      | Some (loc, prev)
        when loc.digest = digest && prev.Retain.tuning_seconds = ts ->
          Retain.Table.set t.index fp loc item
      | Some _ | None ->
          let line = record_line fp item content in
          append t d line ~landed:(fun off ->
              Retain.Table.set t.index fp
                { off; len = String.length line; digest }
                item));
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
      (* one rename drops every record, other processes' too *)
      with_lock t d (fun () ->
          rewrite t.fs (journal_path d) [];
          Retain.Table.reset t.index;
          t.stamped <- true;
          t.journal_ops <- 0;
          t.journal_bytes <- String.length version_line + 1));
  t.eviction_log <- [];
  t.hits <- 0;
  t.misses <- 0;
  t.stores <- 0;
  t.lru_evictions <- 0;
  t.budget_evictions <- 0;
  t.corrupt_evictions <- 0

let quarantined t =
  match t.dir with
  | None -> []
  | Some d ->
      refresh t;
      Fs_io.list_dir t.fs d
      |> List.filter_map (fun name ->
             if not (Filename.check_suffix name quarantine_suffix) then None
             else
               let fp = Filename.chop_suffix name quarantine_suffix in
               if not (Retain.Table.mem t.index fp) then Some fp
               else begin
                 (* superseded: a live record replaced the corruption *)
                 (try Fs_io.remove t.fs (quarantine_path d fp)
                  with Unix.Unix_error _ -> ());
                 None
               end)
      |> List.sort compare

let unquarantine t fp =
  Option.iter
    (fun d ->
      try Fs_io.remove t.fs (quarantine_path d fp) with Unix.Unix_error _ -> ())
    t.dir

(* --- fsck ----------------------------------------------------------- *)

type fsck_report = {
  live : int;
  bytes : int;
  quarantined : int;
  unreadable : int;
  tmp_removed : int;
  torn_repaired : bool;
  quarantine_reclaimed : int;
  known_bad : int;
}

(* Temp files abandoned by a crashed rewrite, and entry files an
   interrupted import left behind (their plans are in the journal), are
   removed; quarantine files older than [quarantine_ttl] are reclaimed.
   A failing remove leaves the file for the next fsck. *)
let sweep fs dir ~now ~quarantine_ttl =
  let removed = ref 0 and reclaimed = ref 0 in
  let remove counter path =
    match Fs_io.remove fs path with
    | () -> incr counter
    | exception Unix.Unix_error _ -> ()
  in
  List.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Fs_io.is_tmp name || Filename.check_suffix name ".plan" then
        remove removed path
      else if Filename.check_suffix name quarantine_suffix then
        match quarantine_ttl with
        | Some ttl when now -. Fs_io.mtime fs path > ttl -> remove reclaimed path
        | Some _ | None -> ())
    (Fs_io.list_dir fs dir);
  (!removed, !reclaimed)

let fsck ?fs ?clock ?quarantine_ttl ~dir () =
  let fs = match fs with Some fs -> fs | None -> Fs_io.real () in
  let clock = match clock with Some c -> c | None -> Clock.real () in
  let report ?(live = []) ?(corrupt = []) ?(unreadable = 0) ?(swept = (0, 0))
      ?(torn = false) () =
    {
      live = List.length live;
      bytes = List.fold_left (fun n (b, _) -> n + b) 0 live;
      quarantined = List.length corrupt;
      unreadable;
      tmp_removed = fst swept;
      torn_repaired = torn;
      quarantine_reclaimed = snd swept;
      known_bad = List.length (Badlist.list ~fs ~dir ());
    }
  in
  if not (Fs_io.exists fs dir) then report ()
  else
    let t = blank ~fs ~clock (Some dir) in
    with_lock t dir (fun () ->
        let now = Clock.now clock in
        match settle t dir ~now with
        (* a read error is no evidence against any plan: touch nothing,
           and say the journal went unchecked *)
        | exception Unix.Unix_error _ -> report ~unreadable:1 ()
        | text, torn ->
            let swept = sweep fs dir ~now ~quarantine_ttl in
            (* each live record checked against its digest and header,
               and accounted off its entry: real size, and the tuning
               cost its header records (the record's for older ones) *)
            let live, corrupt =
              Retain.Table.fold
                (fun fp loc it acc -> (loc.off, fp, loc, it) :: acc)
                t.index []
              |> List.sort compare
              |> List.partition_map (fun (_, fp, loc, it) ->
                     match
                       decode fp ~digest:loc.digest text loc.off
                         (loc.off + loc.len)
                     with
                     | `Ok (entry, _, meta) ->
                         let bytes = String.length entry in
                         let tuning_seconds =
                           Option.value meta.tuned_in
                             ~default:it.Retain.tuning_seconds
                         in
                         Left
                           ( bytes,
                             record_line fp
                               { it with Retain.bytes; tuning_seconds }
                               entry )
                     | `Corrupt entry -> Right (fp, entry)
                     | `Stale -> Right (fp, ""))
            in
            (* never delete plan content: each corrupt entry is set
               aside before the rewrite drops its record, and a failed
               set-aside rewrites nothing; a failed rewrite leaves the
               journal as it stood *)
            let survives f =
              match f () with () -> true | exception Unix.Unix_error _ -> false
            in
            let rewritten =
              List.for_all
                (fun (fp, entry) ->
                  survives (fun () ->
                      Fs_io.write_file fs (quarantine_path dir fp) entry))
                corrupt
              && survives (fun () ->
                     rewrite fs (journal_path dir) (List.map snd live))
            in
            report ~live ~corrupt ~swept ~torn:(torn && rewritten) ())

let describe_fsck r =
  Printf.sprintf
    "live entries     : %d\n\
     accounted bytes  : %d\n\
     quarantined      : %d\n\
     unreadable       : %d\n\
     tmp files swept  : %d\n\
     torn journal     : %s\n\
     quarantine swept : %d\n\
     known-bad marks  : %d\n"
    r.live r.bytes r.quarantined r.unreadable r.tmp_removed
    (if r.torn_repaired then "repaired" else "no")
    r.quarantine_reclaimed r.known_bad

let fsck_clean r = r.quarantined = 0 && r.unreadable = 0
