(** Resolution of the [c$acfd] directives against the program: flow-field
    extents and the status arrays with their status-dimension mapping
    (paper §4.2 cases 4 and 5: packed high-dimensional arrays and
    dependency distances). *)

open Autocfd_fortran

type status_array = {
  sa_name : string;
  sa_rank : int;  (** declared number of array dimensions *)
  sa_dims : int option array;
      (** for each array dimension, the grid (status) dimension it sweeps,
          or [None] for an extended (packed) dimension *)
}

type t = {
  grid_names : string list;  (** parameter names of the grid extents *)
  grid : int array;  (** resolved flow-field extents *)
  status : status_array list;
  dist_overrides : (string * int) list;
  serial_lines : int list;  (** lines after which the next DO stays serial *)
}

val of_program : Ast.program -> t
(** @raise Loc.Error at the directive's line when a [grid] directive names
    something that is not a PARAMETER of the main unit, or a [status]
    directive names an undeclared array, a status dimension count beyond
    the array's rank, or an array with no grid dimension; at the main
    unit's PROGRAM line when the [grid] or [status] directive is missing.
    @raise Failure when the main unit is missing. *)

val ndims : t -> int
val is_status : t -> string -> bool
val find_status : t -> string -> status_array option

val grid_dim_of : t -> string -> int -> int option
(** [grid_dim_of t array k] is the grid dimension swept by array dimension
    [k] of [array] ([None] for packed/extended dimensions or non-status
    arrays). *)

val distance : t -> string -> int
(** Dependency distance for an array: the [dist()] override, default 1. *)

val pp : Format.formatter -> t -> unit
