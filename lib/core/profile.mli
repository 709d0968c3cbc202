(** Kernel-level profiler over one traced run.

    [run] executes a plan once, traced, and folds the run's trace once,
    into {!Autocfd_obs.Metrics.t}; every output here renders those rows:
    the [autocfd profile] verb's hot-nest table (virtual compute time
    attributed to named field-loop nests by the fused engine's
    {!Autocfd_obs.Trace.Kernel} summaries) and per-sync-point latency
    histograms, as text or JSON.  The [trace] and [report] verbs reach
    their run through [run] as well. *)

type t = {
  pf_label : string;
  pf_result : Autocfd_interp.Spmd.result;
  pf_metrics : Autocfd_obs.Metrics.t;
}

val run : ?spec:Runspec.t -> ?label:string -> Driver.plan -> t
(** Run the plan under [spec] (default {!Runspec.default}; its tracer is
    reused when set, otherwise a fresh one is created) and fold the
    trace.  The run charges the costs of the spec's [machine], or of the
    reference cluster ({!Autocfd_perfmodel.Model.pentium_cluster}) when
    the spec names none.  Pass the {e same} spec the plan was built with
    ({!Driver.plan}).
    @raise Autocfd_mpsim.Sim.Rank_failure (or any other exception of
    {!Driver.run}) if the run fails. *)

val coverage : t -> float
(** The share of the run's compute seconds (summed over ranks) that the
    kernel self times attribute to named nests; when the run charged no
    compute time (zero [flop_time]) the flop fraction is used instead,
    and 1.0 when no flops executed at all.  The [profile --check] gate
    requires this to be at least its threshold (default 0.95). *)

val render : ?top:int -> t -> string
(** Human-readable profile: run summary, hot-nest table (the [top]
    source nests, default 10, by self time, with share of compute, flop
    and byte throughput) and per-sync-point latency histograms (log₂
    buckets).  Fragments the loop-fission pass split out of a nest are
    grouped under their source nest, so the table ranks what the
    programmer wrote and indents the fragments beneath it.  A Domains
    run is labelled wall-clock, and its nests' shares are of the
    measured compute. *)

val to_json : ?top:int -> t -> Autocfd_obs.Json.t
(** Machine-readable profile (schema ["autocfd-profile/1"]): the same
    sections plus the full embedded metrics document. *)
