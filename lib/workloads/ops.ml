open Amos_ir

let in_extent ~out ~window ~stride ~dilation =
  ((out - 1) * stride) + ((window - 1) * dilation) + 1

let gemv ?(name = "gemv") ~m ~k () =
  let i = Iter.create "i" m and r = Iter.reduction "r" k in
  let out = Tensor_decl.create "out" [ m ] in
  let a = Tensor_decl.create "a" [ m; k ] in
  let x = Tensor_decl.create "x" [ k ] in
  Operator.create ~name ~iters:[ i; r ]
    ~output:(Operator.access out [ Affine.of_iter i ])
    ~inputs:
      [
        Operator.access a [ Affine.of_iter i; Affine.of_iter r ];
        Operator.access x [ Affine.of_iter r ];
      ]
    ~arith:Operator.Mul_add ()

let gemm ?(name = "gemm") ~m ~n ~k () =
  let i = Iter.create "i" m
  and j = Iter.create "j" n
  and r = Iter.reduction "r" k in
  let out = Tensor_decl.create "out" [ m; n ] in
  let a = Tensor_decl.create "a" [ m; k ] in
  let b = Tensor_decl.create "b" [ k; n ] in
  Operator.create ~name ~iters:[ i; j; r ]
    ~output:(Operator.access out [ Affine.of_iter i; Affine.of_iter j ])
    ~inputs:
      [
        Operator.access a [ Affine.of_iter i; Affine.of_iter r ];
        Operator.access b [ Affine.of_iter r; Affine.of_iter j ];
      ]
    ~arith:Operator.Mul_add ()

let batched_gemm ?(name = "bgemm") ~b ~m ~n ~k () =
  let bb = Iter.create "b" b
  and i = Iter.create "i" m
  and j = Iter.create "j" n
  and r = Iter.reduction "r" k in
  let out = Tensor_decl.create "out" [ b; m; n ] in
  let a = Tensor_decl.create "a" [ b; m; k ] in
  let bm = Tensor_decl.create "bm" [ b; k; n ] in
  Operator.create ~name ~iters:[ bb; i; j; r ]
    ~output:
      (Operator.access out
         [ Affine.of_iter bb; Affine.of_iter i; Affine.of_iter j ])
    ~inputs:
      [
        Operator.access a
          [ Affine.of_iter bb; Affine.of_iter i; Affine.of_iter r ];
        Operator.access bm
          [ Affine.of_iter bb; Affine.of_iter r; Affine.of_iter j ];
      ]
    ~arith:Operator.Mul_add ()

let conv1d ?(name = "c1d") ?(stride = 1) ~n ~c ~k ~p ~r () =
  let h = in_extent ~out:p ~window:r ~stride ~dilation:1 in
  let ni = Iter.create "n" n
  and ki = Iter.create "k" k
  and pi = Iter.create "p" p
  and ci = Iter.reduction "c" c
  and ri = Iter.reduction "r" r in
  let out = Tensor_decl.create "out" [ n; k; p ] in
  let image = Tensor_decl.create "image" [ n; c; h ] in
  let weight = Tensor_decl.create "weight" [ k; c; r ] in
  Operator.create ~name ~iters:[ ni; ki; pi; ci; ri ]
    ~output:
      (Operator.access out
         [ Affine.of_iter ni; Affine.of_iter ki; Affine.of_iter pi ])
    ~inputs:
      [
        Operator.access image
          [
            Affine.of_iter ni;
            Affine.of_iter ci;
            Affine.add (Affine.scaled pi stride) (Affine.of_iter ri);
          ];
        Operator.access weight
          [ Affine.of_iter ki; Affine.of_iter ci; Affine.of_iter ri ];
      ]
    ~arith:Operator.Mul_add ()

let conv2d ?(name = "c2d") ?(stride = 1) ?(dilation = 1) ~n ~c ~k ~p ~q ~r ~s
    () =
  let h = in_extent ~out:p ~window:r ~stride ~dilation in
  let w = in_extent ~out:q ~window:s ~stride ~dilation in
  let ni = Iter.create "n" n
  and ki = Iter.create "k" k
  and pi = Iter.create "p" p
  and qi = Iter.create "q" q
  and ci = Iter.reduction "c" c
  and ri = Iter.reduction "r" r
  and si = Iter.reduction "s" s in
  let out = Tensor_decl.create "out" [ n; k; p; q ] in
  let image = Tensor_decl.create "image" [ n; c; h; w ] in
  let weight = Tensor_decl.create "weight" [ k; c; r; s ] in
  let idx it step win = Affine.add (Affine.scaled it step) (Affine.scaled win dilation) in
  Operator.create ~name ~iters:[ ni; ki; pi; qi; ci; ri; si ]
    ~output:
      (Operator.access out
         [
           Affine.of_iter ni; Affine.of_iter ki; Affine.of_iter pi;
           Affine.of_iter qi;
         ])
    ~inputs:
      [
        Operator.access image
          [ Affine.of_iter ni; Affine.of_iter ci; idx pi stride ri; idx qi stride si ];
        Operator.access weight
          [
            Affine.of_iter ki; Affine.of_iter ci; Affine.of_iter ri;
            Affine.of_iter si;
          ];
      ]
    ~arith:Operator.Mul_add ()

let conv2d_nhwc ?(name = "c2d-nhwc") ?(stride = 1) ~n ~c ~k ~p ~q ~r ~s () =
  let h = in_extent ~out:p ~window:r ~stride ~dilation:1 in
  let w = in_extent ~out:q ~window:s ~stride ~dilation:1 in
  let ni = Iter.create "n" n
  and ki = Iter.create "k" k
  and pi = Iter.create "p" p
  and qi = Iter.create "q" q
  and ci = Iter.reduction "c" c
  and ri = Iter.reduction "r" r
  and si = Iter.reduction "s" s in
  let out = Tensor_decl.create "out" [ n; p; q; k ] in
  let image = Tensor_decl.create "image" [ n; h; w; c ] in
  let weight = Tensor_decl.create "weight" [ r; s; c; k ] in
  let win o v = Affine.add (Affine.scaled o stride) (Affine.of_iter v) in
  Operator.create ~name ~iters:[ ni; ki; pi; qi; ci; ri; si ]
    ~output:
      (Operator.access out
         [
           Affine.of_iter ni; Affine.of_iter pi; Affine.of_iter qi;
           Affine.of_iter ki;
         ])
    ~inputs:
      [
        Operator.access image
          [ Affine.of_iter ni; win pi ri; win qi si; Affine.of_iter ci ];
        Operator.access weight
          [
            Affine.of_iter ri; Affine.of_iter si; Affine.of_iter ci;
            Affine.of_iter ki;
          ];
      ]
    ~arith:Operator.Mul_add ()

let conv3d ?(name = "c3d") ?(stride = 1) ~n ~c ~k ~d ~p ~q ~t ~r ~s () =
  let dd = in_extent ~out:d ~window:t ~stride ~dilation:1 in
  let h = in_extent ~out:p ~window:r ~stride ~dilation:1 in
  let w = in_extent ~out:q ~window:s ~stride ~dilation:1 in
  let ni = Iter.create "n" n
  and ki = Iter.create "k" k
  and di = Iter.create "d" d
  and pi = Iter.create "p" p
  and qi = Iter.create "q" q
  and ci = Iter.reduction "c" c
  and ti = Iter.reduction "t" t
  and ri = Iter.reduction "r" r
  and si = Iter.reduction "s" s in
  let out = Tensor_decl.create "out" [ n; k; d; p; q ] in
  let image = Tensor_decl.create "image" [ n; c; dd; h; w ] in
  let weight = Tensor_decl.create "weight" [ k; c; t; r; s ] in
  let win o v = Affine.add (Affine.scaled o stride) (Affine.of_iter v) in
  Operator.create ~name ~iters:[ ni; ki; di; pi; qi; ci; ti; ri; si ]
    ~output:
      (Operator.access out
         [
           Affine.of_iter ni; Affine.of_iter ki; Affine.of_iter di;
           Affine.of_iter pi; Affine.of_iter qi;
         ])
    ~inputs:
      [
        Operator.access image
          [ Affine.of_iter ni; Affine.of_iter ci; win di ti; win pi ri; win qi si ];
        Operator.access weight
          [
            Affine.of_iter ki; Affine.of_iter ci; Affine.of_iter ti;
            Affine.of_iter ri; Affine.of_iter si;
          ];
      ]
    ~arith:Operator.Mul_add ()

let transposed_conv2d ?(name = "t2d") ~stride ~n ~c ~k ~p ~q ~r ~s () =
  (* Output-size (p, q) transposed conv over a [hi x wi] input lowered to a
     stride-1 conv over the zero-dilated (stride-inserted) input. *)
  ignore stride;
  conv2d ~name ~stride:1 ~n ~c ~k ~p ~q ~r ~s ()

let grouped_conv2d ?(name = "grp") ?(stride = 1) ~groups ~n ~c ~k ~p ~q ~r ~s
    () =
  let h = in_extent ~out:p ~window:r ~stride ~dilation:1 in
  let w = in_extent ~out:q ~window:s ~stride ~dilation:1 in
  let ni = Iter.create "n" n
  and gi = Iter.create "g" groups
  and ki = Iter.create "k" k
  and pi = Iter.create "p" p
  and qi = Iter.create "q" q
  and ci = Iter.reduction "c" c
  and ri = Iter.reduction "r" r
  and si = Iter.reduction "s" s in
  let out = Tensor_decl.create "out" [ n; groups; k; p; q ] in
  let image = Tensor_decl.create "image" [ n; groups; c; h; w ] in
  let weight = Tensor_decl.create "weight" [ groups; k; c; r; s ] in
  let win o v = Affine.add (Affine.scaled o stride) (Affine.of_iter v) in
  Operator.create ~name ~iters:[ ni; gi; ki; pi; qi; ci; ri; si ]
    ~output:
      (Operator.access out
         [
           Affine.of_iter ni; Affine.of_iter gi; Affine.of_iter ki;
           Affine.of_iter pi; Affine.of_iter qi;
         ])
    ~inputs:
      [
        Operator.access image
          [
            Affine.of_iter ni; Affine.of_iter gi; Affine.of_iter ci;
            win pi ri; win qi si;
          ];
        Operator.access weight
          [
            Affine.of_iter gi; Affine.of_iter ki; Affine.of_iter ci;
            Affine.of_iter ri; Affine.of_iter si;
          ];
      ]
    ~arith:Operator.Mul_add ()

let dilated_conv2d ?(name = "dil") ~dilation ~n ~c ~k ~p ~q ~r ~s () =
  conv2d ~name ~dilation ~n ~c ~k ~p ~q ~r ~s ()

let depthwise_conv2d ?(name = "dep") ?(stride = 1) ~n ~c ~p ~q ~r ~s () =
  let h = in_extent ~out:p ~window:r ~stride ~dilation:1 in
  let w = in_extent ~out:q ~window:s ~stride ~dilation:1 in
  let ni = Iter.create "n" n
  and ci = Iter.create "c" c
  and pi = Iter.create "p" p
  and qi = Iter.create "q" q
  and ri = Iter.reduction "r" r
  and si = Iter.reduction "s" s in
  let out = Tensor_decl.create "out" [ n; c; p; q ] in
  let image = Tensor_decl.create "image" [ n; c; h; w ] in
  let weight = Tensor_decl.create "weight" [ c; r; s ] in
  let win o v = Affine.add (Affine.scaled o stride) (Affine.of_iter v) in
  Operator.create ~name ~iters:[ ni; ci; pi; qi; ri; si ]
    ~output:
      (Operator.access out
         [
           Affine.of_iter ni; Affine.of_iter ci; Affine.of_iter pi;
           Affine.of_iter qi;
         ])
    ~inputs:
      [
        Operator.access image
          [ Affine.of_iter ni; Affine.of_iter ci; win pi ri; win qi si ];
        Operator.access weight
          [ Affine.of_iter ci; Affine.of_iter ri; Affine.of_iter si ];
      ]
    ~arith:Operator.Mul_add ()

let capsule_conv2d ?(name = "cap") ~n ~c ~k ~p ~q ~r ~s ~cap () =
  let h = p + r - 1 and w = q + s - 1 in
  let ni = Iter.create "n" n
  and ki = Iter.create "k" k
  and pi = Iter.create "p" p
  and qi = Iter.create "q" q
  and ui = Iter.create "u" cap
  and vi = Iter.create "v" cap
  and ci = Iter.reduction "c" c
  and ri = Iter.reduction "r" r
  and si = Iter.reduction "s" s
  and wi = Iter.reduction "w" cap in
  let out = Tensor_decl.create "out" [ n; k; p; q; cap; cap ] in
  let image = Tensor_decl.create "image" [ n; c; h; w; cap; cap ] in
  let weight = Tensor_decl.create "weight" [ k; c; r; s; cap; cap ] in
  let win o v = Affine.add (Affine.of_iter o) (Affine.of_iter v) in
  Operator.create ~name
    ~iters:[ ni; ki; pi; qi; ui; vi; ci; ri; si; wi ]
    ~output:
      (Operator.access out
         [
           Affine.of_iter ni; Affine.of_iter ki; Affine.of_iter pi;
           Affine.of_iter qi; Affine.of_iter ui; Affine.of_iter vi;
         ])
    ~inputs:
      [
        Operator.access image
          [
            Affine.of_iter ni; Affine.of_iter ci; win pi ri; win qi si;
            Affine.of_iter ui; Affine.of_iter wi;
          ];
        Operator.access weight
          [
            Affine.of_iter ki; Affine.of_iter ci; Affine.of_iter ri;
            Affine.of_iter si; Affine.of_iter wi; Affine.of_iter vi;
          ];
      ]
    ~arith:Operator.Mul_add ()

let batched_conv2d ?(name = "bcv") ~n ~c ~k ~p ~q ~r ~s () =
  let h = p + r - 1 and w = q + s - 1 in
  let ni = Iter.create "n" n
  and ki = Iter.create "k" k
  and pi = Iter.create "p" p
  and qi = Iter.create "q" q
  and ci = Iter.reduction "c" c
  and ri = Iter.reduction "r" r
  and si = Iter.reduction "s" s in
  let out = Tensor_decl.create "out" [ n; k; p; q ] in
  let image = Tensor_decl.create "image" [ n; c; h; w ] in
  let weight = Tensor_decl.create "weight" [ n; k; c; r; s ] in
  let win o v = Affine.add (Affine.of_iter o) (Affine.of_iter v) in
  Operator.create ~name ~iters:[ ni; ki; pi; qi; ci; ri; si ]
    ~output:
      (Operator.access out
         [
           Affine.of_iter ni; Affine.of_iter ki; Affine.of_iter pi;
           Affine.of_iter qi;
         ])
    ~inputs:
      [
        Operator.access image
          [ Affine.of_iter ni; Affine.of_iter ci; win pi ri; win qi si ];
        Operator.access weight
          [
            Affine.of_iter ni; Affine.of_iter ki; Affine.of_iter ci;
            Affine.of_iter ri; Affine.of_iter si;
          ];
      ]
    ~arith:Operator.Mul_add ()

let grouped_fc ?(name = "gfc") ~g ~m ~k () =
  let gi = Iter.create "g" g
  and ii = Iter.create "i" m
  and ri = Iter.reduction "r" k in
  let out = Tensor_decl.create "out" [ g; m ] in
  let x = Tensor_decl.create "x" [ g; k ] in
  let w = Tensor_decl.create "w" [ g; m; k ] in
  Operator.create ~name ~iters:[ gi; ii; ri ]
    ~output:(Operator.access out [ Affine.of_iter gi; Affine.of_iter ii ])
    ~inputs:
      [
        Operator.access x [ Affine.of_iter gi; Affine.of_iter ri ];
        Operator.access w
          [ Affine.of_iter gi; Affine.of_iter ii; Affine.of_iter ri ];
      ]
    ~arith:Operator.Mul_add ()

let mean ?(name = "mean") ~rows ~cols () =
  let ii = Iter.reduction "i" rows and ji = Iter.create "j" cols in
  let out = Tensor_decl.create "out" [ cols ] in
  let x = Tensor_decl.create "x" [ rows; cols ] in
  Operator.create ~name ~iters:[ ji; ii ]
    ~post_scale:(1. /. float_of_int rows)
    ~output:(Operator.access out [ Affine.of_iter ji ])
    ~inputs:[ Operator.access x [ Affine.of_iter ii; Affine.of_iter ji ] ]
    ~arith:Operator.Add_acc ()

let variance ?(name = "var") ~rows ~cols () =
  let ii = Iter.reduction "i" rows and ji = Iter.create "j" cols in
  let out = Tensor_decl.create "out" [ cols ] in
  let x = Tensor_decl.create "x" [ rows; cols ] in
  let mu = Tensor_decl.create "mu" [ cols ] in
  Operator.create ~name ~iters:[ ji; ii ]
    ~post_scale:(1. /. float_of_int rows)
    ~output:(Operator.access out [ Affine.of_iter ji ])
    ~inputs:
      [
        Operator.access x [ Affine.of_iter ii; Affine.of_iter ji ];
        Operator.access mu [ Affine.of_iter ji ];
      ]
    ~arith:Operator.Sq_diff_acc ()

let scan ?(name = "scan") ~n ~len () =
  let ni = Iter.create "n" n
  and ii = Iter.create "i" len
  and ji = Iter.reduction "j" len in
  let out = Tensor_decl.create "out" [ n; len ] in
  let x = Tensor_decl.create "x" [ n; len ] in
  Operator.create ~name ~iters:[ ni; ii; ji ]
    ~preds:[ Predicate.le (Affine.of_iter ji) (Affine.of_iter ii) ]
    ~output:(Operator.access out [ Affine.of_iter ni; Affine.of_iter ii ])
    ~inputs:[ Operator.access x [ Affine.of_iter ni; Affine.of_iter ji ] ]
    ~arith:Operator.Add_acc ()

let maxpool2d ?(name = "maxpool") ?(stride = 2) ~n ~c ~p ~q ~r ~s () =
  let h = in_extent ~out:p ~window:r ~stride ~dilation:1 in
  let w = in_extent ~out:q ~window:s ~stride ~dilation:1 in
  let ni = Iter.create "n" n
  and ci = Iter.create "c" c
  and pi = Iter.create "p" p
  and qi = Iter.create "q" q
  and ri = Iter.reduction "r" r
  and si = Iter.reduction "s" s in
  let out = Tensor_decl.create "out" [ n; c; p; q ] in
  let image = Tensor_decl.create "image" [ n; c; h; w ] in
  let win o v = Affine.add (Affine.scaled o stride) (Affine.of_iter v) in
  Operator.create ~name ~iters:[ ni; ci; pi; qi; ri; si ]
    ~init:neg_infinity
    ~output:
      (Operator.access out
         [
           Affine.of_iter ni; Affine.of_iter ci; Affine.of_iter pi;
           Affine.of_iter qi;
         ])
    ~inputs:
      [
        Operator.access image
          [ Affine.of_iter ni; Affine.of_iter ci; win pi ri; win qi si ];
      ]
    ~arith:Operator.Max_acc ()

type kind =
  | GMV | GMM | C1D | C2D | C3D | T2D | GRP | DIL | DEP | CAP | BCV | GFC
  | MEN | VAR | SCN

let kind_name = function
  | GMV -> "GMV" | GMM -> "GMM" | C1D -> "C1D" | C2D -> "C2D" | C3D -> "C3D"
  | T2D -> "T2D" | GRP -> "GRP" | DIL -> "DIL" | DEP -> "DEP" | CAP -> "CAP"
  | BCV -> "BCV" | GFC -> "GFC" | MEN -> "MEN" | VAR -> "VAR" | SCN -> "SCN"

let all_kinds =
  [ GMV; GMM; C1D; C2D; C3D; T2D; GRP; DIL; DEP; CAP; BCV; GFC; MEN; VAR; SCN ]

let kind_of_name name =
  let wanted = String.uppercase_ascii name in
  match List.find_opt (fun k -> kind_name k = wanted) all_kinds with
  | Some k -> k
  | None -> failwith ("unknown operator kind " ^ name)
