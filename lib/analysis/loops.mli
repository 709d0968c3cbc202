(** Loop structure of one program unit: the inner/outer/adjacent/simple
    relations of the paper's Definitions 6.1–6.4, plus a pre-order traversal
    clock used to express synchronization regions as intervals. *)

open Autocfd_fortran

type loop = {
  lp_id : int;  (** statement id of the DO statement *)
  lp_var : string;
  lp_line : int;
  lp_depth : int;  (** 0 for outermost loops of the unit body *)
  lp_parent : int option;  (** direct outer loop (Def. 6.2) *)
  lp_children : int list;  (** direct inner loops, in order *)
  lp_enter : int;  (** clock at the start of the loop body *)
  lp_exit : int;  (** clock just after the loop *)
  lp_stmt : Ast.stmt;
}

type t

val build : Ast.program_unit -> t
val unit_of : t -> Ast.program_unit
val loops : t -> loop list
(** All loops in pre-order. *)

val loop : t -> int -> loop
(** @raise Not_found for a statement id that is not a DO loop. *)

val clock : t -> int -> int * int
(** [(enter, exit)] clock span of any statement. *)

val enclosing_loops : t -> int -> loop list
(** Loops containing a statement, innermost first. *)

val is_inner : t -> inner:int -> outer:int -> bool
(** Definition 6.1: [inner]'s extended body is strictly contained in
    [outer]'s. *)

val is_direct_inner : t -> inner:int -> outer:int -> bool
(** Definition 6.2. *)

val adjacent : t -> int -> int -> bool
(** Definition 6.3: same direct outer loop (or both outermost). *)

val is_simple : t -> int -> bool
(** Definition 6.4: a loop containing no pair of adjacent inner loops —
    i.e. at most a single chain of nested loops. *)

val top_level : t -> loop list
(** Loops with no outer loop. *)
