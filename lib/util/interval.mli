(** Closed integer intervals [lo, hi]: the value ranges over which the
    fused-kernel bounds prover ([Compile] in the interpreter library)
    folds affine subscripts. *)

type t = private { lo : int; hi : int }

val make : int -> int -> t
(** [make lo hi] is the interval [lo, hi].  @raise Invalid_argument if
    [lo > hi]. *)

val lo : t -> int
val hi : t -> int

val sum : t -> t -> t
(** Minkowski sum: the exact range of [x + y] for [x] in the first
    interval and [y] in the second. *)

val affine : mul:int -> add:int -> t -> t
(** Exact image of the interval under [x -> mul*x + add] (endpoints swap
    when [mul] is negative).  Used by the fused-kernel bounds prover to
    fold affine subscripts over loop trip spaces. *)
