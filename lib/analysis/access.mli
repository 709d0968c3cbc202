(** Array accesses, one account for the whole pre-compiler.

    One affine form of a subscript over a nest's loop variables, one
    decomposer that builds it, the access summary of a statement list,
    and the dependence distance between two references.  The
    parallelizer ({!Field_loop}), loop fission ({!Fission}) and the
    fused-kernel tier ([Interp.Compile]) each describe a nest with their
    own {!names}: which names are its loop variables, constants or
    entry-invariant symbols, and how constants fold. *)

open Autocfd_fortran
module SS : Set.S with type elt = string

type 'k aff = {
  coeffs : int array;
      (** per nest level, outermost first; arrays may be shared between
          forms, so never mutate one *)
  const : int;
  syms : ('k * int) list;
      (** entry-invariant integer scalars, each with its multiplier:
          sorted, combined, no zero multiplier *)
}
(** One subscript as an affine form over a nest's loop variables. *)

type 'k dim = Aff of 'k aff | Opaque  (** not affine in the nest *)

(** What a name met in a subscript or an expression stands for. *)
type 'k leaf =
  | Level of int  (** the loop variable of this nest level *)
  | Int of int  (** an integer constant *)
  | Real of int
      (** an integral real constant: arithmetic on it runs in float *)
  | Sym of 'k  (** an entry-invariant integer scalar *)
  | Other  (** anything else: a subscript reading it is opaque *)

type 'k names

val names :
  depth:int ->
  leaf:(string -> 'k leaf) ->
  fold:(Ast.expr -> int option) ->
  is_array:(string -> bool) ->
  'k names
(** A nest of [depth] levels as one client sees it: [leaf] classifies a
    name (it may raise, and it is called on every name {!subscript} and
    {!summarize} meet), [fold] is the client's constant folder, and
    [is_array] tells an array reference from a function call. *)

val subscript : 'k names -> Ast.expr -> 'k dim * int
(** The affine form of one subscript, and the float operations the
    machine performs evaluating it (each [+], [-], unary minus or
    product by a constant on an operand that holds a {!Real} leaf).
    Anything but constants, leaves, their sums and differences and
    their products by a folded constant is {!Opaque}; so is a form
    that meets an [Other] leaf, and its other operands are then not
    classified. *)

val fold :
  'k names -> Ast.stmt -> (string * [ `Add | `Sub | `Mul | `Max | `Min ] * Ast.expr) option
(** [s = s + e], [s - e], [s * e], [max(s, e)] or [min(s, e)] (also
    [amax1]/[amin1], when no array has that name): the accumulator, its
    operator and [e]. *)

type 'k aref = {
  name : string;
  write : bool;
  dims : 'k dim array option;  (** [None]: the whole array *)
  stmt : int;
      (** the statement holding it: its place in walk order, from 1,
          nested statements counted *)
}

type 'k t = {
  refs : 'k aref list;  (** in walk order *)
  reads : SS.t;  (** scalars read, the nest's loop variables excepted *)
  writes : SS.t;  (** scalars assigned, the same excepted *)
  early : SS.t;
      (** scalars read at a point the walk has not certainly assigned
          them: before any assignment, or after one in only some
          branches of an IF.  The statements of a loop body are taken to
          run. *)
  io : bool;  (** a READ or a WRITE *)
  opaque : bool;
      (** a construct the summary does not describe: a call, a jump, a
          STOP or RETURN, inserted communication, or an assignment to
          something that is neither a scalar nor an array element *)
}

val summarize : ?visit:(Ast.stmt -> bool) -> 'k names -> Ast.block -> 'k t
(** One walk over a statement list, descending into loops and branches;
    [visit] sees every statement it meets, and the walk skips one for
    which it answers [false].  Subscripts read, and so do
    the arguments of a call, which also writes its scalar and whole-array
    arguments.  A READ writes its items. *)

val distance :
  steps:int option array -> 'k dim array -> 'k dim array -> int option array option
(** [distance ~steps a b] relates an instance of a reference with
    subscripts [a] to an instance of a reference (to the same array)
    with subscripts [b] that touches the same element.  [steps] gives
    each level's step sign, outermost first ([None]: unknown).  [None]:
    the two never touch one element.  Otherwise, per level: [b]'s loop
    value minus [a]'s, times the sign of the step, so a positive entry
    means [b]'s instance runs later at that level; [None] where the
    subscripts leave the level free or cannot be related (an opaque
    subscript, different coefficients or symbols, subscript counts that
    differ), and where a nonzero distance meets a step of unknown
    sign. *)
