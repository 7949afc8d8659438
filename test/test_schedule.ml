open Amos
module Ops = Amos_workloads.Ops
module Rng = Amos_tensor.Rng
module Suites = Amos_workloads.Suites
module Networks = Amos_workloads.Networks

let small_mapping () =
  let op = Ops.conv2d ~n:2 ~c:3 ~k:4 ~p:4 ~q:4 ~r:3 ~s:3 () in
  let intr = Intrinsic.toy_mma_2x2x2 () in
  match Mapping_gen.generate_op op intr with
  | m :: _ -> Mapping.make m
  | [] -> Alcotest.fail "no mapping"

let basic_tests =
  [
    Alcotest.test_case "default-validates" `Quick (fun () ->
        let m = small_mapping () in
        Alcotest.(check bool) "valid" true (Schedule.validate m (Schedule.default m)));
    Alcotest.test_case "reduction-dims-serial" `Quick (fun () ->
        let m = small_mapping () in
        let s = Schedule.default m in
        List.iteri
          (fun i (d : Schedule.dim) ->
            if not d.Schedule.parallelizable then begin
              Alcotest.(check int) (d.Schedule.name ^ " block") 1
                s.Schedule.splits.(i).Schedule.block;
              Alcotest.(check int) (d.Schedule.name ^ " subcore") 1
                s.Schedule.splits.(i).Schedule.subcore
            end)
          (Schedule.dims m));
    Alcotest.test_case "dims-cover-outer-and-tiles" `Quick (fun () ->
        let m = small_mapping () in
        let ds = Schedule.dims m in
        let n_outer = List.length m.Mapping.outer_sw in
        let n_tiles =
          Array.fold_left
            (fun acc (fd : Mapping.fused_dim) ->
              if fd.Mapping.tiles > 1 then acc + 1 else acc)
            0 m.Mapping.fused
        in
        Alcotest.(check int) "dims" (n_outer + n_tiles) (List.length ds));
  ]

let random_props =
  let rng = Rng.create 123 in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random-schedules-validate" ~count:100
         (QCheck.make QCheck.Gen.(int_range 0 1000))
         (fun seed ->
           ignore seed;
           let m = small_mapping () in
           Schedule.validate m (Schedule.random rng m)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"mutation-preserves-validity" ~count:100
         (QCheck.make QCheck.Gen.(int_range 0 1000))
         (fun seed ->
           ignore seed;
           let m = small_mapping () in
           let s = Schedule.random rng m in
           Schedule.validate m (Schedule.mutate rng m s)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"crossover-preserves-validity" ~count:100
         (QCheck.make QCheck.Gen.(int_range 0 1000))
         (fun seed ->
           ignore seed;
           let m = small_mapping () in
           let a = Schedule.random rng m and b = Schedule.random rng m in
           Schedule.validate m (Schedule.crossover rng a b)));
  ]

(* --- split menus vs the trial-division oracle --------------------------- *)

(* Menus are shared per domain, so each check runs in a fresh domain and
   asks twice: the first request builds the menu, the repeat is served
   from the domain's table (while it has room). *)
let in_fresh_domain f = Domain.join (Domain.spawn f)

let check_twice what oracle menu n =
  List.iter
    (fun call ->
      Alcotest.(check (array int))
        (Printf.sprintf "%s menu of %d, %s request" what n call)
        (Array.of_list (oracle n)) (menu n))
    [ "first"; "repeat" ]

let check_block_menu =
  check_twice "block" Schedule_oracle.factor_choices Schedule.block_choices

let check_subcore_menu =
  check_twice "sub-core" Schedule_oracle.subcore_choices
    Schedule.subcore_choices

(* every dim extent of every mapping of the operator suite and the six
   networks, at batch 1 and 16, on every preset *)
let real_extents () =
  let extents = Hashtbl.create 1024 and seen = Hashtbl.create 1024 in
  List.iter
    (fun name ->
      let accel = Option.get (Accelerator.by_name name) in
      List.iter
        (fun batch ->
          List.map snd (Suites.operator_suite ~batch)
          @ List.concat_map
              (fun net -> List.map fst (Networks.tensor_ops net))
              (Networks.all ~batch)
          |> List.iter (fun op ->
                 let key = (name, Amos_ir.Dsl.print op) in
                 if not (Hashtbl.mem seen key) then begin
                   Hashtbl.add seen key ();
                   List.iter
                     (fun m ->
                       List.iter
                         (fun (d : Schedule.dim) ->
                           Hashtbl.replace extents d.Schedule.extent ())
                         (Schedule.dims m))
                     (Compiler.mappings accel op)
                 end))
        [ 1; 16 ])
    Accelerator.preset_names;
  List.sort Int.compare (List.of_seq (Hashtbl.to_seq_keys extents))

let menu_tests =
  [
    Alcotest.test_case "menus-equal-oracle-1..10000" `Quick (fun () ->
        in_fresh_domain (fun () ->
            for extent = 1 to 10_000 do
              check_block_menu extent;
              check_subcore_menu extent
            done));
    Alcotest.test_case "menus-equal-oracle-on-suite-and-network-dims" `Quick
      (fun () ->
        let extents = real_extents () in
        Alcotest.(check bool) "some extents beyond 10000" true
          (List.exists (fun e -> e > 10_000) extents);
        in_fresh_domain (fun () ->
            let rests = Hashtbl.create 1024 in
            List.iter
              (fun extent ->
                check_block_menu extent;
                Array.iter
                  (fun block ->
                    Hashtbl.replace rests ((extent + block - 1) / block) ())
                  (Schedule.block_choices extent))
              extents;
            Hashtbl.iter (fun rest () -> check_subcore_menu rest) rests));
  ]

(* --- the memo key ------------------------------------------------------ *)

(* every field of every split, and every other field, one at a time *)
let single_field_changes (t : Schedule.t) =
  [
    ("stage_depth", { t with Schedule.stage_depth = t.Schedule.stage_depth + 1 });
    ("unroll", { t with Schedule.unroll = t.Schedule.unroll + 1 });
    ("vectorize", { t with Schedule.vectorize = not t.Schedule.vectorize });
  ]
  @ List.concat
      (List.init (Array.length t.Schedule.splits) (fun i ->
           let s = t.Schedule.splits.(i) in
           List.map
             (fun (field, s') ->
               let splits = Array.copy t.Schedule.splits in
               splits.(i) <- s';
               (Printf.sprintf "split %d %s" i field, { t with Schedule.splits }))
             [
               ("block", { s with Schedule.block = s.Schedule.block + 1 });
               ("subcore", { s with Schedule.subcore = s.Schedule.subcore + 1 });
               ("serial", { s with Schedule.serial = s.Schedule.serial + 1 });
             ]))

let hash_tests =
  [
    Alcotest.test_case "single-field-changes-change-the-hash" `Quick (fun () ->
        let op = Ops.conv2d ~n:2 ~c:2 ~k:3 ~p:3 ~q:3 ~r:2 ~s:2 () in
        let m =
          List.find
            (fun m -> List.length (Schedule.dims m) >= 6)
            (List.map Mapping.make
               (Mapping_gen.generate_op op (Intrinsic.toy_mma_2x2x2 ())))
        in
        let rng = Rng.create 5 in
        List.iter
          (fun t ->
            let copy = { t with Schedule.splits = Array.copy t.Schedule.splits } in
            Alcotest.(check bool) "equal to a copy" true (Schedule.equal t copy);
            Alcotest.(check int) "hash of a copy" (Schedule.hash t)
              (Schedule.hash copy);
            let changes = single_field_changes t in
            List.iter
              (fun (what, t') ->
                Alcotest.(check bool) (what ^ ": not equal") false
                  (Schedule.equal t t');
                Alcotest.(check bool) (what ^ ": hash differs") true
                  (Schedule.hash t <> Schedule.hash t'))
              changes;
            (* the generic hash stops after 10 meaningful words *)
            Alcotest.(check bool) "the generic hash misses some change" true
              (List.exists
                 (fun (_, t') -> Hashtbl.hash t = Hashtbl.hash t')
                 changes))
          (Schedule.default m :: List.init 8 (fun _ -> Schedule.random rng m)));
  ]

let suites =
  [
    ("schedule.basic", basic_tests);
    ("schedule.random", random_props);
    ("schedule.menus", menu_tests);
    ("schedule.hash", hash_tests);
  ]
