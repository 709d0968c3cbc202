(** Runtime values of the Fortran-subset interpreter.

    Arrays are stored flat in Fortran column-major order with arbitrary
    per-dimension lower bounds. *)

type scalar = Int of int | Real of float | Bool of bool | Str of string

type arr = {
  bounds : (int * int) array;  (** inclusive (lower, upper) per dimension *)
  strides : int array;
  base : int;  (** [sum lo_d * stride_d]: subtracted by the fused offset *)
  total : int;  (** number of elements, [Array.length data] *)
  data : float array;
}

val elements : (int * int) array -> int
(** Number of elements of an array with these bounds, without allocating.
    @raise Invalid_argument on an empty dimension, with {!make_array}'s
    message. *)

val make_array : (int * int) array -> arr
(** Zero-initialized, with strides, total size and the base offset
    precomputed once so element access never refolds [bounds].
    @raise Invalid_argument on an empty dimension. *)

val rank : arr -> int
val size : arr -> int
val linear_index : arr -> int array -> int
(** @raise Invalid_argument on an out-of-bounds subscript. *)

val get : arr -> int array -> float
val set : arr -> int array -> float -> unit
val fill : arr -> float -> unit

val to_float : scalar -> float
(** @raise Invalid_argument on strings. *)

val to_int : scalar -> int
(** Truncation toward zero for reals ([truncate]), matching Fortran INT
    conversion; exact for every real whose truncation fits in [int]. *)

val to_bool : scalar -> bool
val pp_scalar : Format.formatter -> scalar -> unit

val max_abs_diff : arr -> arr -> float
(** Largest pointwise difference.
    @raise Invalid_argument if shapes differ (ranks or any dimension's
    bounds); the message names both shapes. *)
