(** Whole-program inlining: expands every CALL site with the callee's body,
    producing a single main unit.

    The pre-compiler analyzes and restructures the inlined program: this is
    how synchronization regions are hoisted out of subroutines and combined
    across call sites (paper §5.3, Fig. 8) — each call site contributes its
    own loop instances, exactly like the paper counts "two synchronizations
    in subroutine a" for two calls.

    Renaming: callee locals are prefixed with ["<unit>_"]; COMMON variables
    keep their names (shared storage); dummy parameters are substituted by
    the actual arguments.  Labels are renumbered per call instance.

    Restrictions (checked): no recursion; an array-valued dummy parameter
    must receive a bare variable; a dummy assigned in the callee must
    receive a variable. *)

val program : Ast.program -> Ast.program_unit
(** @raise Loc.Error at the CALL's line on recursion, a missing
    subroutine, an argument-count mismatch, a CALL of the main program, a
    COMMON block whose member count differs from its first declaration or
    an unsupported argument binding (an array or DO-variable dummy bound
    to a non-variable, an assigned dummy bound to an expression). *)
