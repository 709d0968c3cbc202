(** The set of field-loop dependency pairs, S_LDP (paper §4.2), computed
    {e after partitioning}: a pair is recorded only when the reference
    actually crosses a demarcation line of the chosen partition.

    Pairs relate field-loop heads of the {e inlined} program, so call sites
    contribute one instance each (§5.3). *)

open Autocfd_partition

(** Data one pair must communicate for one array. *)
type dep_info = {
  di_dims : int list;  (** cut grid dimensions the dependence crosses *)
  di_depth : int array;  (** halo depth needed per grid dimension *)
  di_minus : bool array;  (** per dim: reads reach lower neighbors *)
  di_plus : bool array;  (** per dim: reads reach upper neighbors *)
}

type kind =
  | Forward  (** the A-loop precedes the R-loop in program order *)
  | Backward of int
      (** the dependence wraps around the back edge of the enclosing loop
          with this statement id — either a DO statement or the GOTO of a
          backward-jump (while-style) loop *)
  | Self  (** self-dependent field loop (paper Fig. 3) *)

type pair = {
  dp_assign : Field_loop.summary;
  dp_ref : Field_loop.summary;
  dp_arrays : (string * dep_info) list;
  dp_kind : kind;
}

type t = {
  pairs : pair list;  (** complete S_LDP (before optimization) *)
  loops : Loops.t;
  summaries : Field_loop.summary list;
  gi : Grid_info.t;
  topo : Topology.t;
  virtual_spans : (int * (int * int)) list;
      (** backward-GOTO iteration loops: (goto statement id, clock span
          from the labelled target to the jump) — carrying loops for
          Backward pairs just like DO loops (the paper's while-loop
          optimization) *)
}

val compute :
  Grid_info.t -> Topology.t -> Loops.t -> Field_loop.summary list -> t
(** [compute gi topo loops summaries] builds S_LDP for one (inlined)
    program unit. *)

val self_pairs : t -> pair list

val eliminate_redundant : t -> pair list
(** Drops a pair when another assignment to the same data executes between
    the pair's endpoints (the classical redundant-synchronization
    elimination the paper contrasts with); keeps [Self] pairs out. *)

val count_before : t -> int
(** Synchronization points before optimization — one per (pair, crossed
    dimension), the paper's Table 1 "before" column (the near-additivity
    of the paper's two-dimensional partitions shows each preliminary
    synchronization talks to the neighbors along one dimension). *)

val carrying_span : t -> int -> int * int
(** Clock span of a Backward pair's carrying loop (DO or virtual). *)

val merge_info : dep_info -> dep_info -> dep_info
val pp_pair : Format.formatter -> pair -> unit

val crossing_info :
  Grid_info.t -> Topology.t -> string -> Field_loop.summary -> dep_info option
(** What a reader loop needs of one array across the partition's
    demarcation lines; [None] when nothing crosses.  Exposed for the
    synchronization optimizer. *)
