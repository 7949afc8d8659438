open Amos_ir

type t = {
  name : string;
  compute : Compute_abs.t;
  memory : Memory_abs.t;
  dtype : Tensor_decl.dtype;
  acc_dtype : Tensor_decl.dtype;
  issue_cycles : float;
  latency_cycles : float;
}

let create ~name ~compute ?memory ?(dtype = Tensor_decl.F16)
    ?(acc_dtype = Tensor_decl.F32) ~issue_cycles ~latency_cycles () =
  let memory =
    match memory with
    | Some m -> m
    | None ->
        Memory_abs.standard
          ~srcs:(List.map (fun (o : Compute_abs.operand) -> o.Compute_abs.name)
                   compute.Compute_abs.srcs)
          ~dst:compute.Compute_abs.dst.Compute_abs.name
  in
  { name; compute; memory; dtype; acc_dtype; issue_cycles; latency_cycles }

let mma ?name ~m ~n ~k () =
  let name =
    match name with Some n' -> n' | None -> Printf.sprintf "mma_%dx%dx%d" m n k
  in
  let i1 = Iter.create "i1" m
  and i2 = Iter.create "i2" n
  and r1 = Iter.reduction "r1" k in
  let compute =
    Compute_abs.create ~iters:[ i1; i2; r1 ]
      ~dst:(Compute_abs.operand "Dst" [ i1; i2 ])
      ~srcs:
        [
          Compute_abs.operand "Src1" [ i1; r1 ];
          Compute_abs.operand "Src2" [ r1; i2 ];
        ]
  in
  create ~name ~compute
    ~issue_cycles:(float_of_int (m * n * k) /. 512.)
    ~latency_cycles:32. ()

let wmma_16x16x16 () =
  let t = mma ~name:"wmma::mma_sync(16x16x16)" ~m:16 ~n:16 ~k:16 () in
  { t with issue_cycles = 8.; latency_cycles = 32. }

let wmma_32x8x16 () =
  let t = mma ~name:"wmma::mma_sync(32x8x16)" ~m:32 ~n:8 ~k:16 () in
  { t with issue_cycles = 8.; latency_cycles = 32. }

let wmma_8x32x16 () =
  let t = mma ~name:"wmma::mma_sync(8x32x16)" ~m:8 ~n:32 ~k:16 () in
  { t with issue_cycles = 8.; latency_cycles = 32. }

let toy_mma_2x2x2 () =
  let t = mma ~name:"toy_mma_2x2x2" ~m:2 ~n:2 ~k:2 () in
  { t with issue_cycles = 1.; latency_cycles = 4. }

let broadcast_dot ~name ~lanes ~depth ~dtype ~issue ~latency () =
  let i1 = Iter.create "i1" lanes and r1 = Iter.reduction "r1" depth in
  let compute =
    Compute_abs.create ~iters:[ i1; r1 ]
      ~dst:(Compute_abs.operand "Dst" [ i1 ])
      ~srcs:
        [
          Compute_abs.operand "Src1" [ i1; r1 ];
          Compute_abs.operand "Src2" [ r1 ];
        ]
  in
  create ~name ~compute ~dtype ~acc_dtype:Tensor_decl.I32 ~issue_cycles:issue
    ~latency_cycles:latency ()

let avx512_vnni () =
  broadcast_dot ~name:"_mm512_dpbusds_epi32" ~lanes:16 ~depth:4
    ~dtype:Tensor_decl.I8 ~issue:1. ~latency:5. ()

let mali_dot4 () =
  broadcast_dot ~name:"arm_dot" ~lanes:4 ~depth:4 ~dtype:Tensor_decl.I8
    ~issue:1. ~latency:4. ()

let axpy_unit () =
  let i1 = Iter.create "i1" 64 in
  let compute =
    Compute_abs.create ~iters:[ i1 ]
      ~dst:(Compute_abs.operand "Dst" [ i1 ])
      ~srcs:[ Compute_abs.operand "Src1" [ i1 ]; Compute_abs.operand "Src2" [] ]
  in
  create ~name:"axpy_unit" ~compute ~dtype:Tensor_decl.F32 ~issue_cycles:1.
    ~latency_cycles:4. ()

let gemv_unit () =
  let i1 = Iter.create "i1" 16 and r1 = Iter.reduction "r1" 16 in
  let compute =
    Compute_abs.create ~iters:[ i1; r1 ]
      ~dst:(Compute_abs.operand "Dst" [ i1 ])
      ~srcs:
        [
          Compute_abs.operand "Src1" [ i1; r1 ];
          Compute_abs.operand "Src2" [ r1 ];
        ]
  in
  create ~name:"gemv_unit" ~compute ~dtype:Tensor_decl.F16 ~issue_cycles:2.
    ~latency_cycles:8. ()

let conv_unit () =
  let k = Iter.create "k'" 16
  and p = Iter.create "p'" 4
  and q = Iter.create "q'" 4
  and c = Iter.reduction "c'" 16 in
  let compute =
    Compute_abs.create ~iters:[ k; p; q; c ]
      ~dst:(Compute_abs.operand "Dst" [ k; p; q ])
      ~srcs:
        [
          Compute_abs.operand "Src1" [ c; p; q ];
          Compute_abs.operand "Src2" [ k; c ];
        ]
  in
  create ~name:"conv_unit" ~compute ~dtype:Tensor_decl.F16 ~issue_cycles:8.
    ~latency_cycles:16. ()

let ascend_cube () =
  let t = mma ~name:"ascend_cube_16x16x16" ~m:16 ~n:16 ~k:16 () in
  { t with dtype = Tensor_decl.I8; acc_dtype = Tensor_decl.I32;
           issue_cycles = 6.; latency_cycles = 24. }

let ascend_vector () =
  let i1 = Iter.create "i1" 128 in
  let compute =
    Compute_abs.create ~iters:[ i1 ]
      ~dst:(Compute_abs.operand "Dst" [ i1 ])
      ~srcs:[ Compute_abs.operand "Src1" [ i1 ]; Compute_abs.operand "Src2" [] ]
  in
  create ~name:"ascend_vector_128" ~compute ~dtype:Tensor_decl.F16
    ~issue_cycles:1. ~latency_cycles:6. ()

let of_dsl ?(issue_cycles = 4.) ?(latency_cycles = 16.) ?dtype ~name text =
  match Dsl.parse ~name text with
  | Result.Error msg -> Result.Error msg
  | Ok op -> (
      let slots_of (acc : Operator.access) =
        List.fold_left
          (fun acc_slots a ->
            match acc_slots with
            | Result.Error _ as e -> e
            | Ok slots -> (
                match (Affine.iters a, Affine.constant_part a) with
                | [], 0 -> Ok slots (* scalar slot *)
                | [ it ], 0 when Affine.coeff a it = 1 -> Ok (slots @ [ it ])
                | _ ->
                    Result.Error
                      (Format.asprintf
                         "intrinsic index '%a' must be a bare iteration"
                         Affine.pp a)))
          (Ok []) acc.Operator.index
      in
      let operand (acc : Operator.access) =
        Result.map
          (Compute_abs.operand acc.Operator.tensor.Tensor_decl.name)
          (slots_of acc)
      in
      match (op.Operator.arith, op.Operator.inputs) with
      | Operator.Mul_add, [ a; b ] -> (
          match (operand op.Operator.output, operand a, operand b) with
          | Ok dst, Ok s1, Ok s2 -> (
              match
                Compute_abs.create ~iters:op.Operator.iters ~dst
                  ~srcs:[ s1; s2 ]
              with
              | compute ->
                  Ok (create ~name ~compute ?dtype ~issue_cycles
                        ~latency_cycles ())
              | exception Invalid_argument msg -> Result.Error msg)
          | (Result.Error _ as e), _, _
          | _, (Result.Error _ as e), _
          | _, _, (Result.Error _ as e) -> (
              match e with Result.Error m -> Result.Error m | Ok _ -> assert false))
      | _ ->
          Result.Error
            "an intrinsic statement must be a two-source multiply-accumulate")

let num_srcs t = List.length t.compute.Compute_abs.srcs

let flops_per_call t =
  2.
  *. float_of_int
       (List.fold_left
          (fun acc (it : Iter.t) -> acc * it.Iter.extent)
          1 t.compute.Compute_abs.iters)

let pp ppf t =
  Format.fprintf ppf "@[<v>intrinsic %s:@;<1 2>%a@;<1 2>%a@;<1 2>%a@]" t.name
    Compute_abs.pp t.compute Compute_abs.pp_constraints t.compute
    Memory_abs.pp t.memory
