(* Timing at a reference machine speed.

   The benchmark runs on a core shared with other tenants, and how busy
   they keep the memory system changes the speed of this process by up
   to 1.8x from one minute to the next.  Medians within a run cannot
   remove that: a run that falls in a slow minute is slow throughout.
   So every end-to-end timing is scaled by the current speed of the
   core, measured by a fixed reference kernel run next to the timed
   work:

     reference seconds = wall seconds * [unit_s] / kernel seconds

   The kernel is benchmark code that no change to the program touches.
   It allocates, hashes strings and sorts lists, as the program does,
   because kernels that only do arithmetic or chase pointers do not slow
   down with the program.  Over 150 seconds of back-to-back cold
   compiles on a shared 2-vCPU VM, the compile's wall time spread 9%
   (coefficient of variation) and its reference time 2.3%.

   Scaling is off until [enable] is called; the traced runs leave it off
   so that their spans, allocation counts and timings are the plain
   ones. *)

(* the reference kernel, about a millisecond on an unloaded core *)
let kernel () =
  let h = Hashtbl.create 16 in
  for i = 1 to 800 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 10007)) [ float_of_int i; 1.5 ]
  done;
  let l = Hashtbl.fold (fun k v acc -> (k, List.fold_left ( +. ) 0. v) :: acc) h [] in
  ignore (Sys.opaque_identity (List.sort compare l))

(* the kernel time that defines one reference second per wall second *)
let unit_s = 1e-3

(* a new sample is taken around timed work once the last is older than
   this; the machine's speed changes over hundreds of milliseconds *)
let period = 0.005

let on = ref false
let samples = [| nan; nan; nan |] (* the three latest kernel times *)
let count = ref 0

(* The reference clock advances at [factor] reference seconds per wall
   second, where [factor] is [unit_s] over the median of the latest three
   kernel times (so one sample disturbed by an interrupt does not
   rescale the work around it).  At each sample the stretch since the
   previous one is settled at the mean of the factors at its two ends.
   The kernel's own runs do not advance it, so work that contains timed
   work (a set-up made of requests) excludes the samples taken inside. *)
let clock_s = ref 0. (* reference seconds up to wall time [mark] *)
let mark = ref 0.
let factor = ref nan

let sample () =
  let t0 = Util.now () in
  kernel ();
  let t1 = Util.now () in
  samples.(!count mod 3) <- t1 -. t0;
  incr count;
  let f = unit_s /. Util.median (Array.to_list samples) in
  clock_s := !clock_s +. ((t0 -. !mark) *. (!factor +. f) /. 2.);
  factor := f;
  mark := t1

let clock () = !clock_s +. ((Util.now () -. !mark) *. !factor)

let enable () =
  for _ = 1 to 3 do
    sample ()
  done;
  clock_s := 0.;
  on := true

let fresh () = if Util.now () -. !mark > period then sample ()

(* [timed f] is [f ()] and its time in reference seconds (wall seconds
   while scaling is off) *)
let timed f =
  if not !on then Util.timed f
  else begin
    fresh ();
    let c0 = clock () in
    let v = f () in
    fresh ();
    (v, clock () -. c0)
  end

(* a wall time the program measured itself inside the latest [timed]
   work, in reference seconds *)
let scale wall_s = if !on then wall_s *. !factor else wall_s
