(** SPMD execution: runs the transformed parallel unit on every rank of the
    simulated cluster, implementing the inserted communication statements
    as halo exchanges, pipeline messages, reductions and broadcasts over
    {!Autocfd_mpsim.Sim} — or, with the [Domains] engine, for real over
    {!Autocfd_mpsim.Shm}.

    With a fault plan installed the executor becomes fault-tolerant:
    point-to-point traffic travels over {!Reliable} (seq-numbered,
    checksummed, acknowledged, retransmitted), and with [recovery] set the
    run additionally takes coordinated checkpoints and restarts from the
    newest consistent one when a crashed rank surfaces as {!Sim.Timeout}. *)

open Autocfd_fortran
open Autocfd_mpsim

type recovery = {
  rc_every : int;
      (** take a coordinated checkpoint every [rc_every] sync-point visits
          (at a visit where no pipeline stream is mid-flight) *)
  rc_max_restarts : int;  (** give up and re-raise after this many *)
  rc_bandwidth : float;
      (** bytes/second of the stable store checkpoints are written to and
          restored from (node-local storage, not the interconnect) *)
}

val default_recovery : recovery
(** every 8 sync-point visits, at most 3 restarts, 400 MB/s store *)

type config = {
  gi : Autocfd_analysis.Grid_info.t;
  topo : Autocfd_partition.Topology.t;
  net : Netmodel.t;
  flop_time : float;
      (** seconds charged per floating-point operation (0 = correctness
          only) *)
  input : float list;  (** data served to READ statements (rank 0) *)
  tracer : Autocfd_obs.Trace.t option;
      (** when set, the run records a full execution trace: simulator
          events plus one phase span per combined synchronization point
          entry, tagged with the sync-point id (program order over the
          unit's communication statements), a human-readable label, the
          enclosing DO variable and its current iteration *)
  faults : Fault.plan option;
      (** deterministic fault schedule; when set, every point-to-point
          message travels over the {!Reliable} transport *)
  recovery : recovery option;
      (** checkpoint/restart; only meaningful together with [faults] *)
}

type resilience = {
  rs_restarts : int;  (** attempts abandoned to {!Sim.Timeout} *)
  rs_checkpoints : int;  (** coordinated snapshots taken (counted once) *)
  rs_restores : int;  (** restarts that resumed from a snapshot *)
  rs_retransmits : int;  (** envelopes retransmitted, summed over ranks *)
  rs_dup_suppressed : int;  (** duplicate envelopes discarded *)
  rs_checksum_failures : int;  (** corrupted envelopes discarded *)
}

type domain_stats = {
  ds_wall : float;  (** whole-run wall-clock seconds (spawn to join) *)
  ds_compute : float array;
      (** per-rank wall seconds spent outside communication hooks *)
  ds_barrier_wait : float array;
      (** per-rank wall seconds blocked in barriers/collectives *)
  ds_barrier_calls : int;  (** barrier entries per rank (identical) *)
  ds_flops : float array;  (** per-rank flop counts (same as simulator) *)
  ds_comm_samples : (int * float) list;
      (** (bytes copied, wall seconds) per halo-exchange / allgather
          hook, each rank's hooks in program order, rank after rank; the
          seconds exclude the hook's waits — calibration input
          for {!Autocfd_perfmodel.Model.calibrate} *)
}
(** Measured wall-clock profile of a [Domains] run; the simulated-time
    fields of [stats] are synthesized from these measurements. *)

type result = {
  stats : Sim.stats;  (** of the final (successful) attempt *)
  output : string list;  (** rank 0's WRITE lines *)
  gathered : (string * Value.arr) list;
      (** status arrays assembled from their owners, plus replicated
          arrays taken from rank 0 *)
  scalars : (string * Value.scalar) list;  (** rank 0 final scalars *)
  flops_per_rank : float array;
  resilience : resilience;
  domains : domain_stats option;
      (** wall-clock measurements; [Some _] iff the engine was [Domains] *)
}

type engine = Fused | Domains
(** Where the fused kernels of {!Compile} (straight-line affine DO nests
    run as bounds-hoisted tight loops with batched flop charging, the
    rest on its slot-resolved closure IR) execute each rank's unit body:
    - [Fused]: on the simulated cluster;
    - [Domains]: for real, one OCaml 5 domain per rank, fields in shared
      memory, halo exchange as direct bounds-checked blits between
      neighbouring ranks' arrays, and polling-then-sleeping barriers in
      place of the simulator's virtual-clock sync
      ({!Autocfd_mpsim.Shm}).
    Both are bit-identical to the tree-walking {!Machine} ({!run_tree},
    the semantic oracle of the golden-equivalence suite); [Fused] is the
    default.  [Domains] rejects fault plans and recovery (simulator-only
    features). *)

type runs = private { run_len : int; run_starts : int array }
(** A box of one array as contiguous runs of elements, in column-major
    order (dimension 0 fastest): run [k] starts at offset
    [run_starts.(k)] of the array's data, and every run is [run_len]
    elements long, the box's extent in dimension 0.  An empty box has no
    runs. *)

val box_runs : Value.arr -> (int * int) array -> runs
(** [box_runs arr box] is the inclusive box [box] (one [(lo, hi)] per
    dimension of [arr]) as runs, with offsets from [arr]'s strides and
    base.  @raise Invalid_argument when a nonempty box leaves [arr]'s
    bounds. *)

val blit_runs : runs -> src:float array -> dst:float array -> unit
(** Copies the elements of the runs from [src] into the same offsets of
    [dst]: [Array.blit] per run, or an element loop for runs too short
    for a blit to pay. *)

val run :
  ?engine:engine -> ?fuse:bool -> config -> Ast.program_unit -> result
(** Executes the SPMD unit produced by [Transform.run] on
    [Topology.nranks config.topo] ranks.  [fuse] (default [true]) is the
    tests' seam: [false] runs the closure IR without fused kernels, the
    reference the fused tier is checked against.  The unit is compiled
    once and shared across ranks; each rank resolves a sync point's
    halo-exchange, pipeline or allgather boxes (one owned-box rule: the
    owner's block, packed dimensions whole, grid dimensions clipped to
    the array) into {!runs} at the point's first visit in the run, with
    a reusable payload buffer, and reuses them at every later visit of
    that run.  Packing, unpacking, the [Domains] blits and the final
    gather of the status arrays all copy runs; a payload holds its
    box's elements in column-major order.

    Every engine runs the same per-rank communication hooks: plan
    lookup, the reduction/broadcast/barrier dispatch, pipeline messages,
    the READ broadcast and the sync-point trace spans are written once
    over a small transport record.  The transport is what differs: the
    simulator's {!Sim}/{!Reliable} messages, virtual-clock flop charging
    and immediate trace spans, against {!Autocfd_mpsim.Shm}'s
    collectives, blit-based halo exchange and allgather, wall-clock
    compute/communication split and spans buffered until the domains
    join.  A traced [Domains] run partitions each rank's wall clock:
    its start-up (domain start, [Compile.create], the publish barrier)
    is one [Blocked] event; its compute intervals (from one hook's exit
    to the next hook's entry, and from the last hook to the end of the
    body) are [Compute] events; each hook's waits are [Blocked] and the
    rest of the hook (halo and allgather blits, collective arithmetic)
    is comm, recorded as [Recv] events with the bytes the hook copied,
    both on the hook's sync point.  Checkpoint/restart is
    simulator-only.

    Recovery works by skip-replay: a restarted attempt re-executes the
    unit with communication suppressed, counting sync-point visits, and
    bulk-restores scalars and array data from the snapshot once the
    checkpointed visit is reached.  This requires the unit's control flow
    up to the restore point not to depend on communication results
    (unconditional sync points — true of the benchmark programs); a replay
    that never reaches the restore point fails loudly.  Under a fault
    schedule whose faults are all recoverable (no rank dead beyond
    [rc_max_restarts]), [gathered], [output] and [scalars] are
    bit-identical to the fault-free run.
    @raise Sim.Deadlock / [Machine.Runtime_error] on malformed programs.
    @raise Sim.Timeout when a crash or unrecoverable loss persists past
    [rc_max_restarts] (or immediately without [recovery]). *)

val run_tree : config -> Ast.program_unit -> result
(** {!run} on the tree-walking {!Machine}, on the simulated cluster: the
    semantic oracle the fused kernels are tested against, bit-identical
    to them in every field of [result].  No production path runs it. *)
