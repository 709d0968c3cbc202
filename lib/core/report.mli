(** Human-readable pre-compilation report: everything the pre-compiler
    derived for one partition choice, as markdown — the field-loop census
    with A/R/C/O types and strategies, the S_LDP pair list, the combined
    synchronization points with their aggregated halo traffic, and the
    modelled execution time on the reference cluster.

    Rendered by [autocfd analyze --report] and usable as library API for
    tooling built on top of the pre-compiler. *)

val markdown : ?spec:Runspec.t -> Driver.plan -> string
(** The full report.  Its measured section is one {!Profile.run} of the
    plan under [spec] (default {!Runspec.default}), on the simulated
    cluster or on real domains as [spec.engine] says, or a note naming
    the exception when that run fails.  Pass the spec the plan was built
    with. *)

val loop_census : Driver.plan -> (string * int) list
(** (classification label, count) summary over the field-loop heads:
    how many loops are block-parallel, pipelined, serial. *)

val sched_summary :
  ?stale:int -> (string * Autocfd_sched.Pool.stats) list -> string
(** Markdown summary of a sweep's scheduler activity: one row per table
    (jobs, cache hits/misses/corruption-misses, errors, batch elapsed)
    plus a per-domain utilization table aggregated over all batches (a
    domain's utilization is its busy time over the batch elapsed,
    time-weighted across batches).  The input is
    {!Experiments.sweep_stats}.  With [stale > 0]
    ({!Experiments.sweep_stale}), a footer notes how many stale cache
    temp files were swept when the cache opened. *)

val sched_summary_json :
  ?stale:int ->
  (string * Autocfd_sched.Pool.stats) list ->
  Autocfd_obs.Json.t
(** The same scheduler activity as a machine-readable document (schema
    ["autocfd-sched/1"]): per-batch job/hit/miss/corrupt/error counts,
    wall-clock elapsed, per-worker jobs, busy seconds and utilization,
    and the swept stale-temp-file count (key ["stale_cleaned"]).
    Embedded under the ["sched"] key of [run --json] and
    [tables --json] ([BENCH_tables.json]) output. *)

val fabric_summary : Autocfd_sched.Fabric.stats -> string
(** Markdown summary of a distributed sweep's robustness counters —
    requeues, retries, lease expiries, worker deaths, quarantines,
    stale results, connections cut for a corrupt frame, degraded flag —
    plus a per-worker table. *)
