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
    trace.  Pass a spec with [machine] set to profile against the
    calibrated reference cluster rather than zero-cost flops, and the
    {e same} spec the plan was built with ({!Driver.plan}).
    @raise Autocfd_mpsim.Sim.Rank_failure (or any other exception of
    {!Driver.run}) if the run fails. *)

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
    of compute, flop and byte throughput) and per-sync-point latency
    histograms (log₂ buckets).  A Domains run is labelled wall-clock, and
    its nests' shares are of the measured compute. *)

val to_json : ?top:int -> t -> Autocfd_obs.Json.t
(** Machine-readable profile (schema ["autocfd-profile/1"]): the same
    sections plus the full embedded metrics document. *)
