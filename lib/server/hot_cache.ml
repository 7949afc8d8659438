(* Scored hot front cache for the daemon.

   Replaces the PR-4 FIFO: entries carry the same value accounting as
   the persistent cache ({!Amos_service.Retain.item}) and eviction
   removes the lowest retention score first, so a burst of cheap
   lookups cannot flush the plans that were expensive to tune.  Admits
   dedup on fingerprint — re-admitting an entry replaces it and never
   double-counts its bytes (the FIFO's order queue could hold the same
   fingerprint twice).

   Not thread-safe: the server already serializes hot-cache access
   under its state mutex, and tests drive it single-threaded with a
   virtual clock. *)

open Amos_service

type 'a t = {
  clock : Clock.t;
  capacity : int;
  max_bytes : int option;
  table : 'a Retain.Table.t;
  mutable evictions : int;
}

let create ?max_bytes ~capacity ~clock () =
  {
    clock;
    capacity = max 1 capacity;
    max_bytes;
    table = Retain.Table.create ();
    evictions = 0;
  }

let size t = Retain.Table.length t.table
let bytes t = Retain.Table.bytes t.table
let tuning_seconds t = Retain.Table.tuning_seconds t.table
let evictions t = t.evictions

let find t fp = Retain.Table.touch t.table fp ~now:(Clock.now t.clock)

let mem t fp = Retain.Table.mem t.table fp

let over_budget t =
  size t > t.capacity
  || match t.max_bytes with Some b -> bytes t > b | None -> false

(* admit first, then evict: the fresh entry competes on its score, but
   the last entry standing always stays *)
let put t fp value ~bytes ~tuning_seconds =
  Retain.Table.set t.table fp value
    { Retain.bytes; tuning_seconds; last_access = Clock.now t.clock };
  let rec evict () =
    if over_budget t && size t > 1 then
      match Retain.Table.victim `Scored ~now:(Clock.now t.clock) t.table with
      | Some (vfp, _) ->
          Retain.Table.remove t.table vfp;
          t.evictions <- t.evictions + 1;
          evict ()
      | None -> ()
  in
  evict ()

let clear t =
  Retain.Table.reset t.table;
  t.evictions <- 0
