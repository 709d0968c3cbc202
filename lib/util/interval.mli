(** Closed integer intervals [lo, hi], used for synchronization regions
    expressed as program-line ranges. *)

type t = private { lo : int; hi : int }

val make : int -> int -> t
(** [make lo hi] is the interval [lo, hi].  @raise Invalid_argument if
    [lo > hi]. *)

val lo : t -> int
val hi : t -> int
val length : t -> int
(** Number of integer points covered. *)

val mem : int -> t -> bool
val contains : t -> t -> bool
(** [contains outer inner] is true when [inner] lies entirely in [outer]. *)

val sum : t -> t -> t
(** Minkowski sum: the exact range of [x + y] for [x] in the first
    interval and [y] in the second. *)

val affine : mul:int -> add:int -> t -> t
(** Exact image of the interval under [x -> mul*x + add] (endpoints swap
    when [mul] is negative).  Used by the fused-kernel bounds prover to
    fold affine subscripts over loop trip spaces. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
