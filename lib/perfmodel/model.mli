(** Analytic performance model of the simulated cluster (substitute for the
    paper's wall-clock measurements on 6 Pentium workstations + Ethernet).

    The model walks the generated SPMD program with static trip counts,
    attributing floating-point work to three classes:

    - {e block}: data-parallel field loops — divided across ranks;
    - {e pipeline}: mirror-image/wavefront loops — divided across ranks but
      serialized into [sum(B_d) - k + 1] wavefront stages;
    - {e serial}: replicated statements — no speedup.

    Communication, pipeline handoffs and reductions are charged with the
    {!Autocfd_mpsim.Netmodel} latency/bandwidth model.  Per-point compute
    cost rises smoothly when a rank's working set exceeds the cache and
    again when it exceeds effective fast memory — this is what produces the
    paper's Table 5 superlinear speedups and the memory-pressure slowdown
    discussed in §6.2. *)

open Autocfd_fortran

type machine = {
  flop_rate : float;  (** sustained in-cache flops/s *)
  cache_bytes : float;
  cache_penalty : float;  (** multiplicative slowdown far beyond cache *)
  mem_bytes : float;  (** effective fast-memory capacity *)
  mem_penalty : float;  (** additional slowdown when thrashing *)
  net : Autocfd_mpsim.Netmodel.t;
  overlap : float;
      (** fraction of communication hidden under computation for
          non-pipelined programs (0..1); mirror-image programs get 0, per
          the paper's §6.2 discussion *)
}

val pentium_cluster : machine
(** Calibrated to the paper's testbed era: ~60 MFLOPS sustained Pentium
    workstations, 100 Mb Ethernet. *)

(** Static walk of a program unit. *)
type census = {
  flops_block : float;  (** per-rank flops in block-scheduled loops *)
  flops_pipeline : float;  (** per-rank flops in pipelined loops *)
  flops_serial : float;  (** replicated flops *)
  exchanges : float;  (** executed Exchange statements *)
  exchange_msgs : float;  (** per-rank messages (worst-case interior rank) *)
  exchange_bytes : float;  (** per-rank bytes *)
  pipe_msgs : float;
  pipe_bytes : float;
  reductions : float;
  wave_stages : int;  (** total wavefront hops across pipelined dims + 1 *)
  pipe_fills : float;
      (** wavefront fill events — consecutive sweeps of a pipelined loop
          inside a sequential driver loop stream and fill only once *)
  stall_flops : float;
      (** per-rank flops-equivalent spent stalled during wavefront fills *)
}

val census :
  gi:Autocfd_analysis.Grid_info.t ->
  topo:Autocfd_partition.Topology.t ->
  Ast.program_unit ->
  census
(** Walk the (SPMD or sequential) unit.  DO trip counts are evaluated
    statically; data-dependent loops count one iteration; IF branches
    contribute their flop-maximal branch. *)

type prediction = {
  time : float;
  compute_time : float;
  pipeline_time : float;
  serial_time : float;
  comm_time : float;
  reduce_time : float;
  working_set : float;  (** bytes per rank *)
  slowdown : float;
}

val working_set_bytes :
  gi:Autocfd_analysis.Grid_info.t -> points_per_rank:int -> float
(** Status-array bytes resident per rank. *)

val memory_slowdown : machine -> float -> float
(** The two-knee slowdown curve. *)

val predict_parallel :
  machine ->
  gi:Autocfd_analysis.Grid_info.t ->
  topo:Autocfd_partition.Topology.t ->
  Ast.program_unit ->
  prediction
(** Predicted wall-clock of the SPMD unit on the partition. *)

val predict_sequential :
  machine -> gi:Autocfd_analysis.Grid_info.t -> Ast.program_unit -> prediction
(** Predicted uniprocessor wall-clock of the inlined sequential unit. *)

(** {1 Calibration from measured wall clock}

    The real shared-memory Domains engine measures what the simulator only
    models: wall seconds per rank of compute and per halo-exchange episode.
    [calibrate] fits the model's primitive costs to those measurements so a
    simulated machine can be parameterized from a real run. *)

type calibration = {
  cal_flop_time : float;
      (** fitted seconds per flop (least squares through the origin) *)
  cal_latency : float;  (** fitted per-episode fixed cost, seconds *)
  cal_bandwidth : float;
      (** fitted bytes/second; [infinity] when the byte term does not
          improve the fit (too few or degenerate samples) *)
  cal_compute_r2 : float;  (** goodness of the compute fit, 0..1 *)
  cal_comm_r2 : float;  (** goodness of the communication fit, 0..1 *)
}

val calibrate :
  compute:(float * float) list -> comm:(int * float) list -> calibration
(** [calibrate ~compute ~comm] fits [compute = (flops, seconds)] samples to
    [seconds = flop_time * flops] and [comm = (bytes, seconds)] samples to
    [seconds = latency + bytes / bandwidth].  Neither cost goes negative:
    a falling fit keeps only the latency (the mean time, R^2 = 0), and a
    fit whose latency would be negative is refitted through the origin.
    Degenerate inputs (empty lists, all-equal abscissae) yield zero costs
    rather than raising. *)
