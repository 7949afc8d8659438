(** The software access matrix [X] of the paper (Fig 4): rows are tensors
    (output first, then inputs in order), columns are software iterations in
    the operator's canonical order; entry (t, i) is 1 iff iteration [i]
    indexes tensor [t]. *)

val of_operator : Operator.t -> Bin_matrix.t

val restrict_columns : Bin_matrix.t -> keep:bool array -> Bin_matrix.t
(** Keep only the columns flagged true (used to restrict [X] to the mapped
    software iterations before running Algorithm 1). *)
