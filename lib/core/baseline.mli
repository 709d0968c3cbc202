(** Perf-regression baseline gate over [BENCH_tables.json] documents
    (schema ["autocfd-bench/1"]).

    Rows are matched by their identity fields (program, partition, procs,
    grid, fault schedule) and every gated field is compared
    direction-aware against the committed baseline: modelled times and
    post-optimization sync counts must not rise, speedups / efficiencies
    / fused-loop counts must not fall, the model-validation ratio's drift
    from 1.0 must not grow, and the engine-identity / chaos-recovery
    booleans must stay true.

    Two noise classes, two tolerances: virtual-clock numbers (tables 1-5,
    validation, resilience overhead) are deterministic and gate with the
    tight [tolerance] (default 5%); the engine benchmark's Domains
    speedup is a host wall-clock ratio and gates with the generous
    [wall_tolerance] (default 50%).  Absolute wall-clock seconds are
    never gated — a committed baseline crosses machines.  Rows or tables
    added since the baseline pass silently; rows or tables that
    {e disappeared} fail. *)

type failure = {
  bf_table : string;  (** e.g. ["table2"] *)
  bf_row : string;  (** identity, e.g. ["procs=4 partition=4x1x1"] *)
  bf_field : string;
  bf_reason : string;
}

val compare_tables :
  ?tolerance:float ->
  ?wall_tolerance:float ->
  baseline:Autocfd_obs.Json.t ->
  current:Autocfd_obs.Json.t ->
  unit ->
  failure list
(** Empty list = gate passes.  [autocfd tables --json --check-regress]
    exits nonzero on a non-empty result. *)

val render_failures : failure list -> string
(** One ["REGRESSION table [row] field: reason"] line per failure plus a
    summary line; ["baseline gate: OK"] when empty. *)
