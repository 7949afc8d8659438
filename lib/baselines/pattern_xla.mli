(** An XLA-style pattern matcher (the motivating example, Sec 2.3 /
    Table 2): operators reach the Tensor Core only when they match a
    rigid matrix-multiplication pattern; everything else — depthwise,
    grouped, strided and dilated convolutions, matrix-vector products,
    batched attention matmuls — falls back to the scalar units. *)

open Amos_ir

type verdict =
  | Tensor_core
  | Fallback of string  (** the reason the pattern failed to match *)

val classify : Operator.t -> verdict

val mapped_count : Amos_workloads.Networks.t -> int
(** Number of operator instances of a network the matcher maps — the
    "XLA Mapped" column of Table 2. *)
