(* The cache economy's cost model.

   A cached plan is worth the exploration it saves: [tuning_seconds]
   amortized over the [bytes] it occupies, decayed by how long ago it
   was last useful.  Eviction always removes the lowest-scoring entry,
   so under a byte budget the cache converges on the set of plans whose
   re-tuning would be most expensive per byte held.

   The decay is a half-life over (now - last_access) only — never over
   absolute time — so translating every timestamp by the same delta
   leaves the score (and therefore the eviction order) unchanged.  That
   invariance is what lets virtual-clock tests and real-clock production
   share one code path, and it is pinned by a QCheck property. *)

type item = {
  bytes : int;
  tuning_seconds : float;
  last_access : float;
}

(* entries written before value metadata existed load with this
   conservative default: modest enough that known-expensive plans win
   ties, non-zero so legacy entries are not evicted as worthless *)
let default_tuning_seconds = 1.0

let default_half_life = 3600.

let score ?(half_life = default_half_life) ~now item =
  let age = Float.max 0. (now -. item.last_access) in
  let per_byte = item.tuning_seconds /. float_of_int (max 1 item.bytes) in
  per_byte *. (0.5 ** (age /. half_life))

type budget = {
  max_bytes : int option;
  max_tuning_seconds : float option;
}

let unlimited = { max_bytes = None; max_tuning_seconds = None }

let over budget ~bytes ~tuning_seconds =
  (match budget.max_bytes with Some b -> bytes > b | None -> false)
  || (match budget.max_tuning_seconds with
     | Some s -> tuning_seconds > s
     | None -> false)

type policy = [ `Scored | `Lru ]

module Table = struct
  type 'a slot = { value : 'a; mutable item : item }

  type 'a t = {
    slots : (string, 'a slot) Hashtbl.t;
    mutable bytes : int;
    mutable tuning_seconds : float;
  }

  let create () = { slots = Hashtbl.create 64; bytes = 0; tuning_seconds = 0. }
  let length t = Hashtbl.length t.slots
  let bytes t = t.bytes
  let tuning_seconds t = t.tuning_seconds
  let mem t fp = Hashtbl.mem t.slots fp
  let item t fp = Option.map (fun s -> s.item) (Hashtbl.find_opt t.slots fp)

  let fold f t acc =
    Hashtbl.fold (fun fp s acc -> f fp s.value s.item acc) t.slots acc

  let reset t =
    Hashtbl.reset t.slots;
    t.bytes <- 0;
    t.tuning_seconds <- 0.

  let remove t fp =
    match Hashtbl.find_opt t.slots fp with
    | None -> ()
    | Some s ->
        Hashtbl.remove t.slots fp;
        (* an emptied table reads exactly zero, whatever rounding the
           running float sum picked up on the way *)
        if Hashtbl.length t.slots = 0 then reset t
        else begin
          t.bytes <- t.bytes - s.item.bytes;
          t.tuning_seconds <- t.tuning_seconds -. s.item.tuning_seconds
        end

  let set t fp value item =
    remove t fp;
    Hashtbl.replace t.slots fp { value; item };
    t.bytes <- t.bytes + item.bytes;
    t.tuning_seconds <- t.tuning_seconds +. item.tuning_seconds

  let touch t fp ~now =
    match Hashtbl.find t.slots fp with
    | s ->
        s.item <- { s.item with last_access = now };
        Some s.value
    | exception Not_found -> None

  (* lowest key first, ties to the smallest fingerprint, so the choice
     never depends on the table's iteration order *)
  let victim policy ~now t =
    let key it =
      match policy with `Scored -> score ~now it | `Lru -> it.last_access
    in
    Hashtbl.fold
      (fun fp s acc ->
        let k = key s.item in
        match acc with
        | Some (bfp, bk, _) when bk < k || (bk = k && bfp <= fp) -> acc
        | _ -> Some (fp, k, s.item))
      t.slots None
    |> Option.map (fun (fp, _, it) -> (fp, it))
end
