(** Reproduction harness for every table in the paper's evaluation (§6).

    Each [tableN] function regenerates the corresponding table: the same
    rows, same columns, with our measured/modelled values beside the
    paper's published ones.  Timing tables use the
    {!Autocfd_perfmodel.Model} cluster model (the substitute for the
    paper's 6-Pentium testbed); Table 1 is a pure static analysis of the
    generated case-study programs.

    One spec→row pipeline serves every table.  A table is a list of
    self-contained job specs, each with the row fields that execution
    does not produce (identity and the paper's figures), plus a list of
    columns.  Each spec runs as one {!Autocfd_sched.Job} through
    {!Autocfd_sched.Pool} or the {!Autocfd_sched.Fabric}, memoized in a
    content-addressed {!Autocfd_sched.Cache} under a key derived from the
    spec itself ({!job}).  A {!row} is one JSON object: the case's own
    fields, the job's result and any field derived across rows (speedup,
    efficiency, ratio, coverage counts).  The table's columns render it,
    and {!tables_json} writes it unchanged.  Rows come back in
    submission order and are decoded from the same JSON the cache
    stores, so serial, parallel and warm-cache sweeps all render
    byte-identically. *)

type sweep
(** One sweep context: worker count, optional result cache, optional
    tracer for scheduler events, and the accumulated per-table pool
    statistics. *)

val sweep :
  ?jobs:int ->
  ?cache:Autocfd_sched.Cache.t ->
  ?tracer:Autocfd_obs.Trace.t ->
  ?fabric:Autocfd_sched.Fabric.t ->
  unit ->
  sweep
(** A sweep running [jobs] worker domains (default 1) with an optional
    persistent result cache.  With [fabric] set, jobs are dispatched
    over the distributed {!Autocfd_sched.Fabric} instead of the local
    pool (and [jobs] is ignored).  Passing the same [sweep] to several
    tables accumulates their pool statistics in call order. *)

val sweep_stats : sweep -> (string * Autocfd_sched.Pool.stats) list
(** Per-table scheduler statistics for every [run] the sweep has
    performed so far, in call order (table name, pool stats). *)

val sweep_stale : sweep -> int
(** Stale cache temp files swept when this sweep's cache was opened
    (see {!Autocfd_sched.Cache.stale_cleaned}); 0 without a cache. *)

val exec_spec : Autocfd_obs.Json.t -> Autocfd_obs.Json.t
(** Execute one self-contained job spec (the [jb_spec] attached to
    every sweep job) and return its result JSON.  This is the resolver a
    fabric worker runs: each table's job body lives here, keyed on the
    spec's ["kind"], so local and remote execution share one code path.
    @raise Autocfd_obs.Json.Parse_error on an unknown or malformed
    spec. *)

val job : table:string -> label:string -> Autocfd_obs.Json.t -> Autocfd_sched.Job.t
(** [job ~table ~label spec] is the sweep job of one spec, labelled
    ["table:label"].  Its cache key is the spec with each program text
    (["source"], ["large_source"], ["measure_source"]) replaced by its
    {!Autocfd_sched.Job.digest}, plus the table name and the
    {!machine}; its [jb_spec] is the spec itself, full sources included,
    for a fabric worker. *)

val program_state_identical :
  Autocfd_interp.Spmd.result -> Autocfd_interp.Spmd.result -> bool
(** Gathered arrays (names, bounds and data), final scalars, per-rank
    flop counts and WRITE output all bit-identical.  [stats] is left out:
    it is what the Domains engine cannot share with the simulator (its
    stats are measured wall clock), so this is the Domains-vs-simulator
    equivalence contract. *)

type row = Autocfd_obs.Json.t
(** One table row, as [autocfd tables --json] writes it. *)

(** Field readers over a {!row} (or any job result).
    @raise Autocfd_obs.Json.Parse_error on a missing field or one of
    another type. *)

val jf : string -> row -> float
val ji : string -> row -> int
val jb : string -> row -> bool
val js : string -> row -> string

val table1 : ?sweep:sweep -> unit -> row list
(** Synchronization optimization on both case studies (paper Table 1):
    [program], [partition], [before], [after], [paper_before],
    [paper_after]. *)

val table2 : ?sweep:sweep -> unit -> row list
(** Aerofoil overall performance, 99 x 41 x 13 (paper Table 2): [procs],
    [partition], [time], [speedup], [efficiency], [paper_time],
    [paper_speedup]; the uniprocessor row's [partition], speedups and
    efficiency are null. *)

val table3 : ?sweep:sweep -> unit -> row list
(** Sprayer overall performance, 300 x 100 (paper Table 3), in Table 2's
    fields. *)

val table4 : ?sweep:sweep -> unit -> row list
(** Sprayer 2-processor scaling with grid density (paper Table 4):
    [grid], [t1], [t2], [speedup], [efficiency], [paper_t1], [paper_t2],
    [paper_speedup]. *)

val table5 : ?sweep:sweep -> unit -> row list
(** Sprayer superlinear speedup at 800 x 300 (paper Table 5): [procs],
    [partition], [time], [eff_over_2] (parallel efficiency over the
    2-processor row), [paper_time], [paper_eff]. *)

val render_table1 : row list -> string
val render_perf : title:string -> row list -> string
val render_table4 : row list -> string
val render_table5 : row list -> string

type validation_row = {
  vr_row : row;
      (** [grid], [partition], [simulated] (the SPMD program executed on
          the simulated cluster: per-flop compute charges plus the
          network model), [modelled] (the analytic prediction),
          [ratio] *)
  vr_ratio : float;  (** modelled / simulated *)
}

val validate_model : ?sweep:sweep -> unit -> validation_row list
(** Cross-validation of the analytic performance model against
    execution-driven timing: small sprayer instances are {e run} on the
    simulated cluster with per-flop time charging, and the same instances
    are {e predicted} by the analytic model.  The two derive wall-clock by
    completely different means (event-driven blocking vs static census),
    so agreement within a small factor validates both. *)

val render_validation : validation_row list -> string

val engine_bench : ?sweep:sweep -> unit -> row list
(** The fused kernels on the simulated cluster ([Fused]) against the
    same kernels on real OCaml 5 domains ([Domains]), on a small
    aerofoil and sprayer instance: each case is executed on both
    engines and with loop fission off, program state is checked for
    bit-identity against the fused simulation, then each is timed on
    the wall clock over repeated runs.  Row fields: [program],
    [partition]; mean wall-clock seconds [fused_s], [nofission_fused_s]
    (fission off) and, on a larger instance, [fused_wall_s] and
    [domains_s]; [domains_speedup] (fused / domains on the larger
    instance); the bit-identity flags [domains_identical] (program
    state against the simulator) and [fission_identical] (fission on vs
    off); [coverage]
    and [nofission_coverage] ({!coverage_to_json}) with their
    [loops_fused]/[loops_total] counts ([_nofission] suffixed for the
    latter); and the model primitives fitted from the Domains run,
    [cal_flop_time], [cal_latency], [cal_bandwidth] (0 for infinite),
    [cal_compute_r2], [cal_comm_r2].  The wall-clock seconds are part of
    the cached row, so a warm-cache sweep reports the timings of the run
    that populated the cache. *)

val render_engine : row list -> string

val render_engine_coverage : row list -> string
(** Per-loop kernel coverage detail: one line per field-loop nest of each
    benchmarked SPMD unit, saying whether it fused and, if not, why it
    fell back to the closure IR. *)

val coverage_to_json :
  Autocfd_interp.Compile.coverage_entry list -> Autocfd_obs.Json.t
(** Serialize per-nest coverage rows (line, vars, fused, reason prose,
    loop-fission provenance as [frag]/[nfrags] ints, 0 = unsplit). *)

val render_coverage_fission : unit -> string
(** Human-readable before/after loop-fission coverage of the bundled
    applications: per program, fused counts with the pass disabled and
    enabled, then one line per nest (fission fragments annotated
    [#i/n]) — the [autocfd coverage] verb and CI coverage artifact. *)

val chaos_bench : ?seed:int -> ?sweep:sweep -> unit -> row list
(** The resilience harness: a small sprayer (2 x 2) and aerofoil
    (2 x 2 x 1) instance are first run fault-free, then re-run under six
    seeded fault schedules each (loss, duplication+corruption,
    jitter+degraded link, a straggler, a crash with checkpoint/restart,
    and all combined), with the reliable transport and coordinated
    checkpointing enabled.  Row fields: [program], [schedule],
    [identical] (gathered arrays, WRITE output and final scalars
    bit-equal to the fault-free run), [overhead] (faulty / fault-free
    virtual elapsed time), the faults injected ([drops], [duplicates],
    [corruptions], [reorders], [stalls], [crashes]) and the recovery
    counters ([restarts], [checkpoints], [restores], [retransmits],
    [dup_suppressed], [checksum_failures]).  Every schedule is
    recoverable, so every row must report [identical = true]. *)

val render_chaos : row list -> string

val tune_program :
  ?grid:Tune.grid ->
  ?base:Runspec.t ->
  ?sweep:sweep ->
  ?measure_source:string ->
  program:string ->
  source:string ->
  unit ->
  Tune.result
(** Auto-tune one program: enumerate {!Tune.points} for [grid], dispatch
    each point as a cached job through the sweep (one job per point,
    whose spec carries the serialized runspec, so a warm re-tune is pure
    hits), and prune to the Pareto frontier.  [base] seeds the
    non-searched runspec fields; [measure_source] is the small instance
    Domains-engine points execute for a real wall clock (it only enters
    the job — and its cache key — for those points). *)

val tune_table : ?grid:Tune.grid -> ?sweep:sweep -> unit -> Tune.result list
(** {!tune_program} over both paper case studies on their frame-scaled
    sources (so tuned times line up with the Table 2/3 rows).  Wall
    measurement is confined to the [Wide] grid; [Default] results are
    fully deterministic and byte-reproducible. *)

val machine : Autocfd_perfmodel.Model.machine
(** The calibrated cluster model used by every timing table. *)

val aerofoil_frames : int
val sprayer_frames : int
(** Frame counts used to scale modelled runs to the paper's wall-clock
    magnitudes (the paper does not state its iteration counts). *)

val tables_json : ?sweep:sweep -> unit -> Autocfd_obs.Json.t
(** Every table (1-5), the model-validation rows, the execution-engine
    benchmark (key ["engine"]), the chaos/resilience benchmark (key
    ["resilience"]), each as its list of {!row}s; the default-grid
    auto-tune results (key ["tune"], {!Tune.result_to_json} per
    program); and the sweep's scheduler statistics of every table (key
    ["sched"], {!Report.sched_summary_json}) as one JSON document
    (schema ["autocfd-bench/1"]) — the diffable perf trajectory written
    to [BENCH_tables.json] by [autocfd tables --json].  All tables run
    through the given [sweep] (default: a fresh serial sweep).  The
    ["sched"] section is wall-clock (machine-dependent). *)
