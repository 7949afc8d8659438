(* The split menus as they stood before the square-root divisor walk in
   [Amos.Schedule], kept verbatim as the oracle: the test suites assert
   that {!Amos.Schedule.block_choices} and
   {!Amos.Schedule.subcore_choices} return exactly these menus, in this
   order.  The genetic search indexes the menus with RNG draws, so any
   drift in membership or order changes every tuned plan. *)

let factor_choices extent =
  let rec divisors i acc =
    if i > extent then acc
    else divisors (i + 1) (if extent mod i = 0 then i :: acc else acc)
  in
  let divs = divisors 1 [] in
  (* also allow non-dividing powers of two (covered by ceil + padding) *)
  let pows =
    List.filter (fun p -> p < extent) [ 2; 4; 8; 16; 32; 64; 128 ]
  in
  List.sort_uniq Int.compare (divs @ pows)

(* the sub-core menu of what a block leaves *)
let subcore_choices rest = List.filter (fun f -> f <= 8) (factor_choices rest)
