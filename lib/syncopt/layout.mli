(** Block layout of a program unit: every statement list (the unit body,
    loop bodies, IF branches) gets a dense block id assigned in pre-order,
    and every statement a (block, index) coordinate.

    Synchronization regions are contiguous ranges of insertion slots within
    a single block; slot [i] of a block is the gap before its [i]-th
    statement (slot [length] is the gap at the end). *)

open Autocfd_fortran

type block_id = int

type owner =
  | Top  (** the unit body *)
  | Loop_body of int  (** statement id of the owning DO *)
  | Branch of int * int  (** (IF statement id, branch index) *)
  | Else of int  (** (IF statement id) *)

type t

val of_unit : Ast.program_unit -> t
val nblocks : t -> int
val owner : t -> block_id -> owner
val stmts : t -> block_id -> Ast.stmt array
val parent : t -> block_id -> (block_id * int) option
(** Enclosing block and the index of the owning statement within it;
    [None] for the top block. *)

val coord : t -> int -> block_id * int
(** [(block, index)] of a statement id.  @raise Not_found. *)

val slot_clock : t -> block_id -> int -> int
(** Monotone clock value of a slot, used for sorting and reporting: the
    clock of the gap before statement [i] (or after the last). *)
