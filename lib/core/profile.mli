(** Kernel-level profiler over one traced run.

    [run] executes a plan as a single uncached job through the sweep pool
    and folds the run's trace once, into {!Autocfd_obs.Metrics.t}; every
    output here renders those rows plus the pool's stats: the
    [autocfd profile] verb's hot-nest table (virtual compute time
    attributed to named field-loop nests by the fused engine's
    {!Autocfd_obs.Trace.Kernel} summaries), per-sync-point latency
    histograms and pool utilization, as text, JSON or Prometheus text. *)

type t = {
  pf_label : string;
  pf_metrics : Autocfd_obs.Metrics.t;
  pf_pool : Autocfd_sched.Pool.stats;
  pf_flops : float;  (** total executed flops, summed over ranks *)
}

val run : ?spec:Runspec.t -> ?label:string -> Driver.plan -> t
(** Run the plan under [spec] (default {!Runspec.default}; its tracer is
    reused when set, otherwise a fresh one is created) and derive the
    profile.  Pass a spec with [machine] set to profile against the
    calibrated reference cluster rather than zero-cost flops.  Pass the
    {e same} spec the plan was built with ({!Driver.plan}): the spec is
    one value naming the whole configuration point, and the profile job
    key serializes it as the record of what was measured.
    @raise Failure if the underlying run raises. *)

val compute_seconds : t -> float
(** Total virtual compute seconds, summed over ranks. *)

val attributed_seconds : t -> float
(** Virtual compute seconds attributed to named nests (sum of kernel
    self times). *)

val coverage : t -> float
(** [attributed_seconds /. compute_seconds]; when the run charged no
    compute time (zero [flop_time]) the flop fraction is used instead,
    and 1.0 when no flops executed at all.  The [profile --check] gate
    requires this to be at least its threshold (default 0.95). *)

type nest_group = {
  ng_nest : Autocfd_obs.Metrics.kernel_row;
      (** the source nest — when the loop-fission pass split it, a
          synthesized aggregate over the fragments (self time / flops /
          bytes summed, calls the max over fragments) *)
  ng_frags : Autocfd_obs.Metrics.kernel_row list;
      (** the fission fragments in fragment order, [[]] when unsplit *)
}
(** One source field-loop nest of the hot-nest table.  Fragments the
    loop-fission pass split out of a nest are grouped under their source
    nest so the table ranks what the programmer wrote; the [render]ed
    table indents them beneath the aggregate row. *)

val nest_groups : t -> nest_group list
(** Every source nest by descending (aggregate) self time. *)

val hot_nests : ?top:int -> t -> nest_group list
(** The [top] (default 10) source nests by descending self time. *)

val render : ?top:int -> t -> string
(** Human-readable profile: run summary, hot-nest table (self time, share
    of compute, flop and byte throughput), per-sync-point latency
    histograms (log₂ buckets) and the scheduler utilization table.  A
    Domains run is labelled wall-clock, and its nests show no share of
    compute: it charges no virtual compute. *)

val to_json : ?top:int -> t -> Autocfd_obs.Json.t
(** Machine-readable profile (schema ["autocfd-profile/1"]): the same
    sections plus the full embedded metrics document. *)

val to_prometheus : t -> string
(** The [profile --prom] body: {!Autocfd_obs.Metrics.to_prometheus} of
    the run's metrics, then the pool's families from its stats (cache
    probe outcomes including corruption misses, job outcomes, job-time
    and queue-wait histograms, per-worker busy seconds and utilization
    gauges). *)
