(** Compile-once execution engine for the Fortran subset.

    {!compile} lowers a program unit into a closure-based IR exactly once:
    every scalar name is resolved to an integer slot in a typed bank
    (separate unboxed [float]/[int]/[bool] banks), every array reference
    is lowered to a fused row-major-offset computation over strides
    precomputed from the declared bounds, and int/real arithmetic is
    specialized at compile time (the machine's dynamic [Value.scalar]
    dispatch survives only for the rare statically-untypeable
    expression).  The closures still return boxed floats: an OCaml
    closure called through an unknown function boxes its float result,
    one allocation per real-valued node per evaluation.  Only the row
    path of the fused-kernel tier (below) keeps real arithmetic unboxed.

    Semantics — results, WRITE output, flop charges, runtime-error messages,
    GOTO/label behavior — are bit-identical to {!Machine} running the same
    unit; the golden-equivalence test suite ([test/test_engine.ml]) enforces
    this on every application program.  Dynamic errors raise
    {!Machine.Runtime_error} so callers need not distinguish engines. *)

open Autocfd_fortran

type cu
(** A compiled program unit: immutable, shareable across any number of
    execution states (e.g. all ranks of an SPMD run). *)

type state
(** One execution of a compiled unit: slot banks, array storage, flop
    counter, I/O queues, hooks. *)

val sequential_hooks : state Machine.hooks
(** Same behavior as {!Machine.sequential_hooks}. *)

(** Why a field-loop nest did or did not compile to a fused kernel — a
    closed variant so tests and reports can match on constructors.
    [Other] appears only when {!reason_of_string} meets prose this build
    does not produce. *)
type reason =
  | Fused
  | Scalar_subscript
  | Non_affine_subscript
  | Bound_loop_var
  | Bound_written_scalar
  | Bound_not_integer
  | Rank_mismatch
  | Non_arith_value
  | Non_arith_scalar
  | Logical_in_body
  | Int_division
  | Int_mod
  | Dynamic_exponent
  | Local_bound_in_body
  | Intrinsic_arity of string
  | Unknown_intrinsic of string
  | Undeclared_array
  | Assign_to_loop_var
  | Scalar_assign
  | Bad_assign_target
  | Non_assign_stmt
  | Duplicate_loop_var
  | Loop_var_not_int
  | Loop_var_no_slot
  | Empty_body
  | If_in_body
  | Goto_in_body
  | Io_in_body
  | Comm_in_body
  | Control_in_body
  | Carried_scalar
      (** a scalar the body assigns is read before its assignment in the
          iteration (a fold's accumulator excepted): it carries the
          previous point's value, which no row keeps *)
  | Int_scalar_assign  (** an integer scalar assigned in the body *)
  | No_row_order
      (** no row level or diagonal keeps the nest's dependences *)
  | Other of string

val reason_to_string : reason -> string
(** Stable human-readable prose (["fused"], ["IF in loop body"], ...);
    exactly what older builds stored as raw strings, so serialized
    coverage rows are unchanged. *)

val reason_of_string : string -> reason
(** Inverse of {!reason_to_string}; unknown prose maps to [Other]. *)

type coverage_entry = {
  cov_line : int;  (** source line of the nest's outermost DO *)
  cov_vars : string list;  (** loop variables, outermost first *)
  cov_fused : bool;
  cov_reason : reason;  (** [Fused], or why the nest fell back *)
  cov_frag : Ast.fission_tag option;
      (** provenance when the nest is a loop-fission fragment: its index
          and the total fragment count of the source nest (which shares
          [cov_line]) *)
}
(** Static fusibility of one field-loop nest (a DO nest that writes at
    least one declared array element), recorded when compiling with
    [~fuse:true]. *)

val compile : ?fuse:bool -> Ast.program_unit -> cu
(** Lower the unit.  Evaluates PARAMETER constants, array bounds and DATA
    statements with {!Machine.initial}, as {!Machine.create} does, so
    initialization is bit-identical and the same inputs raise the same
    errors ({!Machine.Runtime_error}, or [Invalid_argument] on an empty
    dimension); no array storage is allocated here, only each array's
    bounds and DATA contents are kept, and every {!create} allocates its
    own.

    With [~fuse:true] (the default) the compiler additionally emits a
    fused kernel for every DO nest whose body is a straight-line sequence
    of assignments to declared array elements over affine subscripts:
    bounds are evaluated once at entry, every subscript is proven in-range
    for the whole trip space with interval arithmetic, elements are
    accessed unchecked through per-reference offset deltas, and the nest's
    flops are charged as one batched [trips * flops-per-iteration] update.
    Each kernel takes one of two paths, fixed at compile time (see
    {!kernel_path}).  Results, flop totals and error behavior stay
    bit-identical to the closure IR (and hence to {!Machine}); nests the
    analyzer or the runtime prover cannot discharge fall back to the
    closure IR.  A fused nest's fallback closure is compiled on its first
    call rather than here; states running at once on several domains may
    each compile it then, which changes nothing they compute.
    [~fuse:false] is the tests' seam: the closure IR alone, the
    reference the fused kernels are checked against. *)

val of_unit : ?fuse:bool -> Ast.program_unit -> cu
(** Memoized {!compile}: the same physical [program_unit] (and fuse flag)
    compiles once and the result is shared (all ranks of a run, repeated
    runs in benchmarks and tables). *)

val coverage : cu -> coverage_entry list
(** Field-loop nests in program order.  Empty unless the unit was
    compiled with [~fuse:true]. *)

(** How a fused kernel runs its nest.

    - [Row l]: statement by statement over each row along level [l]
      (0 = outermost, as in [cov_vars]), the other levels walked in
      source order.  Every expression node evaluates the whole row into
      an unboxed float register in a scratch buffer owned by the
      {!state}; a scratch scalar keeps its row in a register; each
      statement then stores its row through the reference's offset
      step.  A fold ([s = s + e], [s - e], [s * e], [s = max(s, e)] or
      [min(s, e)], whose real accumulator [s] no other statement
      assigns or reads and [e] does not read) folds its row into [s]
      in row order.  A level is legal when, for every two references to
      one array, at least one a write, the distance vector of
      {!Autocfd_analysis.Fission.distance} keeps its leading nonzero
      sign with the level moved innermost ([None] counting as any
      distance), and no two such references that meet within a row run
      from a statement back to an earlier one, or from a statement's
      write to a later read of its own.  Among the legal levels the
      nest takes the one whose references have the least summed
      [|flat stride|], the innermost of them on a tie; a nest with a
      fold tries only the source innermost level, so that folding
      performs source order's operations in its order.  Flop charges,
      final loop-variable and scratch-scalar values are those of source
      order.
    - [Diag (a, b)]: as [Row], over rows along the anti-diagonal of
      levels [a < b]: each point raises [a]'s normalized index by one
      and lowers [b]'s by one, and the other levels are walked in
      source order with the wavefront [n_a + n_b] in [a]'s place.  Tried
      only when no single level is legal and the body has no fold.  The
      pair is legal when every distance and both levels' steps are
      known and each vector's walk-order vector ([d] with [d_a + d_b],
      counted in steps, in [a]'s place and [d_b] removed) leads with the
      vector's own sign, or is zero and keeps the within-row rule at row
      offset [d_a]; among the legal pairs the nest takes the one of
      least summed [|row stride|], the outer on a tie.  SOR sweeps take
      this path.

    A nest the rows cannot run is not fused: it stays on the closure IR
    with reason [Carried_scalar], [Int_scalar_assign] or
    [No_row_order]. *)
type kernel_path = Row of int | Diag of int * int

val kernel_paths : cu -> kernel_path option list
(** Per {!coverage} entry, in the same order: the path of the nest's
    fused kernel, [None] for a nest that fell back to the closure IR. *)

type kernel_stat = {
  ks_line : int;  (** source line of the nest's outermost DO *)
  ks_vars : string list;  (** loop variables, outermost first *)
  ks_fused : bool;
  ks_frag : Ast.fission_tag option;  (** loop-fission provenance *)
  ks_calls : int;  (** nest executions on this state *)
  ks_flops : float;  (** self flops (inner profiled nests excluded) *)
  ks_bytes : float;  (** bytes moved by the fused kernel (0 on fallback) *)
}
(** Per-nest execution profile of one state, one entry per {!coverage}
    entry (same order).  Maintained whenever the unit was compiled with
    [~fuse:true]; flop attribution is exact — every flop the state
    charges inside a recorded nest lands in exactly one entry. *)

val kernel_stats : state -> kernel_stat list

val create : ?hooks:state Machine.hooks -> ?input:float list -> cu -> state
(** Fresh state: storage of its own for every array, holding its DATA
    contents (zeros elsewhere), PARAMETER and scalar-DATA slots pre-set. *)

val run : state -> unit
(** Execute the unit body.  [Machine.Stop_run] is caught internally.
    @raise Machine.Runtime_error on dynamic errors. *)

(** Environment access, mirroring the {!Machine} accessors: *)

val unit_of : state -> Ast.program_unit
val flops : state -> float
val reset_flops : state -> unit
val output : state -> string list
val scalar : state -> string -> Value.scalar
val scalar_opt : state -> string -> Value.scalar option
val set_scalar : state -> string -> Value.scalar -> unit
val array : state -> string -> Value.arr
val has_array : state -> string -> bool

val array_names : state -> string list
(** Sorted, same order as {!Machine.array_names}. *)

val scalar_bindings : state -> (string * Value.scalar) list
(** Every currently-set scalar, sorted by name — same contract as
    {!Machine.scalar_bindings}; used by the recovery layer to snapshot
    and restore the scalar banks. *)
