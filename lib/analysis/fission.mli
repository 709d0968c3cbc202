(** Loop fission (distribution).

    Splits perfect DO nests whose innermost body mixes kernel-fusable
    affine statements with non-fusable residue into maximal independent
    sub-nests, so the affine fragments reach the fused-kernel execution
    tier.  One sub-nest is emitted per strongly connected component of
    the statement-level dependence graph, in topological order;
    statements on a loop-carried dependence cycle stay together.  Nests
    where splitting could change semantics (control flow, targeted
    labels, bounds depending on body-written scalars, undecidable
    conflicts spanning every statement) are left intact, as are nests
    where no fragment would newly fuse (profitability guard).

    Fragments carry {!Autocfd_fortran.Ast.fission_tag} provenance on
    their outermost DO and keep the source nest's line number, so
    coverage, tracing and profiling can attribute them back to the
    original loop. *)

open Autocfd_fortran

type split = {
  sp_line : int;  (** source line of the original nest's outer DO *)
  sp_vars : string list;  (** loop variables, outermost first *)
  sp_nfrags : int;  (** fragments emitted *)
}

val distribute : Ast.program_unit -> Ast.program_unit * split list
(** [distribute u] returns [u] with every profitably-splittable nest
    replaced by its fragments, plus one {!split} record per nest that
    was distributed (in body order).  Unsplit statements are returned
    physically unchanged, so downstream memoization on statement ids
    stays valid for them. *)

(** {1 Dependence distance}

    The distance vector behind the statement-level dependence test of
    {!distribute}, exposed for other clients: the fused-kernel tier of
    [Interp.Compile] decides with it whether a nest may run one
    innermost row at a time. *)

type 'k aff = {
  coeffs : int array;  (** per nest level, outermost first *)
  const : int;
  syms : ('k * int) list;
      (** entry-invariant integer scalars, each with its multiplier *)
}
(** One subscript as an affine form over a nest's loop variables. *)

val distance :
  steps:int option array -> 'k aff array -> 'k aff array -> int option array option
(** [distance ~steps a b] relates an instance of a reference with
    subscripts [a] to an instance of a reference (to the same array)
    with subscripts [b] that touches the same element.  [steps] gives
    each level's step sign, outermost first ([None]: unknown).  [None]:
    the two never touch one element.  Otherwise, per level: [b]'s loop
    value minus [a]'s, times the sign of the step, so a positive entry
    means [b]'s instance runs later at that level; [None] where the
    subscripts leave the level free or cannot be related (different
    coefficients or symbols), and where a nonzero distance meets a step
    of unknown sign. *)
