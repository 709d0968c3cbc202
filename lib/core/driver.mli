(** The Auto-CFD pre-compiler driver (paper Fig. 2): sequential Fortran CFD
    source in, analyzed/optimized SPMD message-passing program out, plus
    execution of both versions on the simulated cluster for validation.

    {v
    source --parse--> program --inline--> unit
        --partition--> topology
        --analyze-after-partitioning--> S_LDP
        --optimize-syncs--> combined points
        --restructure--> SPMD unit --> simulated ranks
    v} *)

open Autocfd_fortran
module A = Autocfd_analysis
module S = Autocfd_syncopt
module P = Autocfd_partition

type t = {
  program : Ast.program;
  inlined : Ast.program_unit;
  gi : A.Grid_info.t;
  splits : A.Fission.split list;
      (** nests the loop-fission pass distributed, in body order *)
}

val load : ?spec:Runspec.t -> string -> t
(** Parse, inline and (unless [spec.fission] is false) loop-fission a
    complete source text.  Fission splits mixed DO nests into independent
    sub-nests before any analysis or engine sees the unit, so every
    execution tier runs the same fissioned program.  Only [spec.fission]
    applies here; the other fields matter to {!plan} and {!run}.
    @raise Loc.Error / Failure on malformed input. *)

(** Everything the pre-compiler derives for one partition choice. *)
type plan = {
  source : t;
  topo : P.Topology.t;
  summaries : A.Field_loop.summary list;
  sldp : A.Sldp.t;
  layout : S.Layout.t;
  opt : S.Optimizer.result;
  strategies : (int * A.Mirror.strategy) list;
  spmd : Ast.program_unit;  (** the executable parallel unit *)
}

val plan : ?spec:Runspec.t -> t -> plan
(** Run the full analysis and restructuring for the partition choice the
    spec names: [spec.parts] when set, else {!auto_parts} for
    [spec.nprocs]; synchronization points are combined with
    [spec.combine].  The default spec therefore plans the automatic
    4-rank partition with optimal combining.
    @raise Invalid_argument for an infeasible partition. *)

val auto_parts : t -> nprocs:int -> int array
(** The partition shape the pre-compiler picks automatically (minimal
    communication, §4.1). *)

val auto_parts_by_model :
  ?machine:Autocfd_perfmodel.Model.machine -> t -> nprocs:int -> int array
(** A stronger advisor than §4.1's volume heuristic: runs the full
    analysis and the cluster performance model on every feasible
    factorization of [nprocs] and returns the shape with the smallest
    predicted wall-clock — this accounts for mirror-image pipeline
    serialization and replicated (Serial) loops, which pure communication
    volume cannot see. *)

val spmd_source : plan -> string
(** Pretty-printed parallel program with [call acfd_*] communication. *)

val mpi_source : plan -> string
(** Complete Fortran 77 + MPI rendering of the parallel program: block
    bounds computed by an emitted [acfdini] subroutine, one specialized
    pack/send/recv/unpack subroutine per combined synchronization point,
    [mpi_allreduce]/[mpi_bcast] for reductions and input, rank-0 guarded
    output.  The emitted text re-parses with {!Autocfd_fortran.Parser}. *)

type seq_result = {
  sq_output : string list;
  sq_arrays : (string * Autocfd_interp.Value.arr) list;
  sq_flops : float;
}

val run_seq : ?spec:Runspec.t -> t -> seq_result
(** Executes the inlined sequential unit with fused kernels.  Only
    [spec.input] (READ data) applies; the cluster-side fields are
    ignored. *)

val config : ?spec:Runspec.t -> plan -> Autocfd_interp.Spmd.config
(** The executor configuration {!run} passes to
    {!Autocfd_interp.Spmd.run}.  With [spec.machine] set, the machine's
    network and the plan-calibrated per-flop charge override
    [spec.net]/[spec.flop_time]. *)

val run : ?spec:Runspec.t -> plan -> Autocfd_interp.Spmd.result
(** Executes the SPMD unit under one {!Runspec.t} (default
    {!Runspec.default}: fused engine, fast network, zero flop cost,
    nothing optional).  [spec.engine] picks where the fused kernels run
    ({!Autocfd_interp.Spmd.run}): [Fused] on the simulated cluster,
    [Domains] for real on OCaml 5 domains.  The executor configuration
    is {!config}'s; add a tracer to get what the old [run_traced]
    produced.  [spec.faults] installs a deterministic fault schedule
    (messages then travel over the reliable transport); [spec.recovery]
    additionally enables coordinated checkpoint/restart — see
    {!Autocfd_interp.Spmd.run}. *)

val calibrated_flop_time :
  ?machine:Autocfd_perfmodel.Model.machine -> plan -> float
(** Seconds per floating-point operation on the reference machine, with
    the memory-pressure slowdown for the plan's per-rank working set
    applied (the calibration the model-validation experiments use; this
    is what [Runspec.machine] applies automatically). *)

val max_divergence :
  seq_result -> Autocfd_interp.Spmd.result -> (string * float) list
(** Per status array, the largest |sequential - parallel| over all points;
    the headline correctness check. *)
