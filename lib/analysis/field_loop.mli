(** Field-loop identification and A/R/C/O classification (paper Fig. 1),
    plus per-loop access summaries for the status arrays: stencil offsets
    per grid dimension, fixed boundary planes, scalar reductions, all
    read from one {!Access} summary of each nest.

    A {e field loop head} is an outermost loop whose nest sweeps at least
    one status dimension of the flow field; all dependency analysis is done
    between field loop heads. *)

open Autocfd_fortran

(** How one status dimension is indexed in a reference: a view of the
    subscript's {!Access.aff} form over the nest's loop variables. *)
type index_kind =
  | Affine of string * int  (** loop variable + constant offset *)
  | Fixed of int  (** compile-time constant plane: boundary code *)
  | Opaque  (** anything else — treated conservatively *)
[@@deriving show, eq]

type ltype = A | R | C | O [@@deriving show, eq]

(** Use of one status array inside a loop nest. *)
type array_use = {
  au_assigned : bool;
  au_referenced : bool;
  au_read_offsets : int list array;
      (** per grid dimension, sorted distinct affine read offsets *)
  au_write_offsets : int list array;
  au_fixed_reads : (int * int) list;  (** (grid dim, plane) *)
  au_fixed_writes : (int * int) list;
  au_opaque_read_dims : int list;
  au_opaque_write_dims : int list;
}

(** A recognized scalar reduction inside a field loop:
    [s = max(s, e)], [s = min(s, e)] or [s = s + e]. *)
type reduction = { red_var : string; red_op : [ `Max | `Min | `Sum ] }
[@@deriving show, eq]

type summary = {
  fs_loop : Loops.loop;  (** the head DO statement *)
  fs_unit : string;
  fs_var_dims : (string * int) list;
      (** nest loop variable -> grid dimension it sweeps (only variables
          with a unique consistent mapping) *)
  fs_swept_dims : int list;  (** grid dimensions swept by the nest *)
  fs_uses : (string * array_use) list;  (** per status array *)
  fs_read_refs : (string * (int * index_kind) list) list;
      (** every status-array read reference with its per-grid-dimension
          index kinds: the joint offset vectors for mirror-image
          legality analysis *)
  fs_reductions : reduction list;
  fs_irregular : bool;
      (** conflicting variable/dimension mapping or opaque indices — the
          loop must stay sequential/replicated *)
  fs_serial : bool;  (** user forced c$acfd serial *)
  fs_hazard_dims : int list;
      (** dims the nest must not be cut along, judged over the whole
          nest: it chains fixed planes, a write that moves with the
          dim's variable meets a fixed-plane read, a fixed-plane write
          sits in a sweep of the dim, or (every swept dim) it assigns a
          scalar that is read after it *)
}

val ltype : summary -> string -> ltype
(** Classification of the head loop w.r.t. one status array. *)

val self_dependent : summary -> string -> bool
(** Assigned and referenced with a non-zero offset in the same nest —
    paper Fig. 3. *)

val analyze_unit : Grid_info.t -> Ast.program_unit -> summary list
(** Field-loop heads of a unit, in program order. *)
