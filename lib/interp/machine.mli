(** Tree-walking interpreter for the Fortran subset.

    The machine executes one (inlined) program unit: a flat environment of
    scalars and arrays, statement execution with GOTO support, and
    pluggable hooks for the SPMD constructs (communication statements,
    local-bound expressions) so the same evaluator runs both the sequential
    program and each simulated rank of the generated parallel program. *)

open Autocfd_fortran

type t

exception Stop_run

exception Runtime_error of string
(** A dynamic error of the running program; [Printexc.to_string] renders
    it as ["runtime error: msg"]. *)

type 'm hooks = {
  h_block : (int -> int * int) option;
      (** per grid dimension: the rank's (lo, hi) owned range; [None] on
          the sequential machine (Local_lo/Local_hi become identities) *)
  h_comm : 'm -> sid:int -> Ast.comm -> unit;
      (** [sid] is the communication statement's [Ast.s_id]; the SPMD
          executor uses it to attribute the operation to its combined
          synchronization point for tracing *)
  h_pipe_recv :
    'm -> sid:int -> dim:int -> dir:Ast.direction -> (string * int) list -> unit;
  h_pipe_send :
    'm -> sid:int -> dim:int -> dir:Ast.direction -> (string * int) list -> unit;
  h_read : 'm -> int -> float array;
      (** supply [n] input values (rank 0 reads, then broadcasts) *)
  h_write : 'm -> Value.scalar list -> unit;
}
(** The hooks an evaluator calls for the SPMD constructs and I/O, one
    record for both evaluators: ['m] is the evaluator's state ({!t}
    here, [Compile.state] in the closure IR), so the SPMD executor
    builds one set of hooks for either. *)

val sequential_hooks_with :
  read:('m -> int -> float array) ->
  write:('m -> Value.scalar list -> unit) ->
  'm hooks
(** No block, and communication statements raise {!Runtime_error};
    READ and WRITE go to [read] and [write]. *)

val sequential_hooks : t hooks
(** Reads pop the machine's input queue; writes append to the output list;
    communication statements raise {!Runtime_error}. *)

(** One declared array before it has storage. *)
type array_init = {
  ai_bounds : (int * int) array;  (** inclusive (lower, upper) per dimension *)
  ai_data : float array;
      (** DATA contents: empty for all zeros, one value for every element,
          else one value per element in storage order *)
}

val allocate : array_init -> Value.arr
(** Fresh storage holding the array's initial contents. *)

type init
(** A unit's initial environment without array storage: PARAMETER
    constants, scalar DATA values, declared types, and each declared
    array's bounds and DATA contents. *)

val initial : Ast.program_unit -> init
(** Evaluates PARAMETER constants, array bounds and DATA statements,
    checking every array shape and DATA count, but allocates nothing:
    {!create} allocates from it, and [Compile.compile] keeps it so that
    each [Compile.create] allocates its own storage.
    @raise Runtime_error when a bound is not constant or a DATA count is
    wrong.
    @raise Invalid_argument on an empty dimension. *)

val init_arrays : init -> (string * array_init) list
(** Declared arrays, sorted by name (the order of {!array_names}). *)

val init_scalars : init -> (string * Value.scalar) list
(** What {!scalar_bindings} is right after {!create}. *)

val init_type : init -> string -> Ast.dtype
(** The type assignments to [name] convert to: the declared type, or the
    Fortran implicit rule (I-N integer, otherwise real). *)

val create : ?hooks:t hooks -> ?input:float list -> Ast.program_unit -> t
(** {!initial}, then storage for every declared array.  @raise
    Runtime_error when an array bound is not constant. *)

val run : t -> unit
(** Executes the unit body.  [Stop_run] (from STOP) is caught internally.
    @raise Runtime_error on dynamic errors (with context). *)

val flops : t -> float
(** Floating-point operations executed so far (used by the execution-driven
    time model). *)

(** Environment access (tests, drivers, hooks): *)

val scalar : t -> string -> Value.scalar
val set_scalar : t -> string -> Value.scalar -> unit
val array : t -> string -> Value.arr

val array_names : t -> string list
(** Sorted; memoized after the first call (declarations are fixed once the
    unit starts). *)

val scalar_bindings : t -> (string * Value.scalar) list
(** Every currently-set scalar, sorted by name.  Right after {!create}
    this is exactly the PARAMETER constants plus scalar DATA values
    ({!init_scalars}). *)

val output : t -> string list
(** Lines written so far, oldest first. *)

val eval : t -> Ast.expr -> Value.scalar
(** Evaluate an expression in the current environment. *)

val trip_count : lo:int -> hi:int -> step:int -> int
(** Number of iterations of [DO var = lo, hi, step]: the body runs exactly
    this many times and the variable's exit value is [lo + trips*step].
    Shared by the tree-walking DO loop and the fused-kernel tier (which
    charges [trips * flops-per-iteration] in one batched update).
    @raise Invalid_argument on [step = 0]. *)
