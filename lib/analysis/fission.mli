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
