(** Deterministic multicore job pool for experiment sweeps.

    [jobs] OCaml 5 worker domains take jobs in submission order from
    one shared atomic index, and their results are merged back {e in
    submission order}, so any downstream rendering of the merged results
    is bit-identical to a serial run — parallelism changes wall-clock,
    never output.  With a {!Cache}
    attached, each job first probes the cache and only runs on a miss
    (storing the result on completion); a fully warm sweep touches no
    simulation at all.

    A job that raises does not wedge the pool: its slot reports the error
    while every other job still completes.  Errors are returned as
    strings (the exception's printable form) so callers can attribute the
    failure to the original row.  An exception in the pool machinery
    itself (e.g. the cache store failing) is different: every domain is
    still joined, then the first such failure is re-raised {e with its
    original backtrace} ([Printexc.raise_with_backtrace]) — a trace that
    [Domain.join] alone would lose. *)

type outcome =
  | Ran  (** executed (and stored, when a cache is attached) *)
  | Hit  (** served from the cache; the thunk never ran *)
  | Failed of string  (** the thunk raised *)

type event = {
  pe_worker : int;  (** worker domain index, [0 .. jobs-1] *)
  pe_index : int;  (** job's submission index *)
  pe_label : string;
  pe_t0 : float;  (** wall-clock seconds since the pool started *)
  pe_t1 : float;
  pe_outcome : outcome;
}

type stats = {
  ps_jobs : int;  (** jobs submitted *)
  ps_hits : int;
  ps_misses : int;  (** jobs actually executed (including failures) *)
  ps_errors : int;
  ps_corrupt : int;
      (** cache probes during this batch that found an unusable entry
          (see {!Cache.corruption_misses}); 0 without a cache *)
  ps_elapsed : float;  (** wall-clock seconds for the whole batch *)
  ps_busy : float array;  (** per-worker seconds spent handling jobs *)
  ps_ran : int array;  (** per-worker jobs handled *)
  ps_events : event list;  (** in wall-clock order *)
}

val utilization : stats -> int -> float
(** [utilization stats w] = busy seconds of worker [w] / batch elapsed,
    in [0, 1] (0 when the batch took no measurable time). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the default worker count. *)

val execute :
  ?cache:Cache.t -> Job.t -> outcome * (Autocfd_obs.Json.t, string) result
(** Run one job with the pool's error isolation: [Hit] when [cache]
    holds its result, otherwise the thunk's result ([Ran], stored in
    [cache] when one is given) or its exception's printable form
    ([Failed]).  A failing cache store raises. *)

val batch_stats :
  ?cache:Cache.t ->
  ?tracer:Autocfd_obs.Trace.t ->
  workers:int ->
  corrupt0:int ->
  elapsed:float ->
  event option array ->
  stats
(** The account of one batch from its completion events, one slot per
    submitted job: events in wall-clock order, per-worker busy seconds
    and jobs handled (events on a worker outside [0 .. workers-1] count
    in neither), hits, misses and errors, and [cache]'s corruption
    misses beyond [corrupt0].  With [tracer], sizes it to [workers]
    lanes and records one {!Autocfd_obs.Trace.Sched} event per job, in
    that order.  Both {!run} and the socket fabric account their batches
    through it. *)

val run :
  ?jobs:int ->
  ?cache:Cache.t ->
  ?tracer:Autocfd_obs.Trace.t ->
  Job.t list ->
  (Autocfd_obs.Json.t, string) result array * stats
(** Execute the jobs and return their results in submission order.

    [jobs] defaults to {!default_jobs}; [jobs <= 1] runs everything on
    the calling domain (no domain is spawned).  With [tracer] set, one
    {!Autocfd_obs.Trace.Sched} event per job (run / hit / error) is
    recorded after the batch completes, on the worker's "rank" with
    wall-clock timestamps. *)
