(** Auto-tuning: search the whole configuration space behind one verb.

    ComPar-style auto-tuning for the Auto-CFD pipeline: enumerate the
    product space of every plan- and run-time knob a {!Runspec.t} can
    express — rank count, partition shape (all feasible factorizations),
    sync-combining strategy, loop fission and execution engine —
    evaluate each point under the calibrated performance model
    ({!Autocfd_perfmodel.Model}), and report the winner plus the Pareto
    frontier over (predicted time, per-rank communication volume,
    per-rank working set).

    Each search point {e is} a runspec: {!points} returns a list of
    [Runspec.t] values, and the serialized spec is simultaneously the
    tune job's cache key and the recipe to reproduce that exact run.
    Evaluation is deterministic (pure model predictions), so tune tables
    are byte-identical across serial, pooled and distributed sweeps; the
    one nondeterministic quantity — real Domains-engine wall clock — is
    measured only on the wide grid and excluded from dominance. *)

(** How wide to open each axis. [Default] covers every hand-picked
    configuration in the paper's Table 2/3 reproductions (so the tuned
    winner can only match or beat them); [Wide] adds odd rank counts,
    first-fit-only regressions, the fission ablation and the real
    Domains engine. *)
type grid = Default | Wide

val grid_to_string : grid -> string
val grid_of_string : string -> (grid, string) result
(** ["default"] / ["wide"]. *)

val points : ?base:Runspec.t -> grid -> Driver.t -> Runspec.t list
(** All search points for [grid] on a loaded program: the cartesian
    product of the grid's axes, with the partition axis instantiated to
    every factorization of each rank count that is feasible for the
    program's grid (shapes {!Autocfd_partition.Topology.create} rejects
    are dropped).  [base] (default {!Runspec.default}) seeds the
    non-searched fields — machine, input, faults… — so tuning composes
    with [--spec]. *)

(** One evaluated point.  [tm_wall] is the measured Domains wall clock
    when available, [None] otherwise; it is informational and never
    enters dominance. *)
type metrics = {
  tm_time : float;  (** predicted parallel seconds *)
  tm_comm : float;  (** per-rank exchange + pipeline bytes *)
  tm_mem : float;  (** per-rank working set, bytes *)
  tm_wall : float option;
}

type entry = {
  te_spec : Runspec.t;
  te_parts : int array;  (** the resolved shape (auto or explicit) *)
  te_metrics : metrics;
}

val eval :
  ?measure_source:string ->
  machine:Autocfd_perfmodel.Model.machine ->
  source:string ->
  Runspec.t ->
  entry
(** Plan [source] under the spec and read the three model axes off the
    resulting SPMD unit.  When the spec selects the Domains engine and
    [measure_source] is given, additionally executes that (small)
    instance for real and records its wall clock. *)

val entry_to_json : entry -> Autocfd_obs.Json.t
val entry_of_json : Autocfd_obs.Json.t -> entry
(** Round-trip codec; tune results travel through the sweep cache as
    JSON.  [entry_of_json] raises {!Autocfd_obs.Json.Parse_error} on a
    malformed document. *)

val dominates : metrics -> metrics -> bool
(** [dominates a b]: [a] is no worse than [b] on all of (time, comm,
    mem) and strictly better on at least one. *)

val frontier : entry list -> entry list
(** The non-dominated entries, in the deterministic report order:
    ascending time, then comm, then mem; exact metric ties resolve
    toward the paper's default knobs (optimal combining, fission on) and
    finally the canonical spec JSON.  Entries with
    exactly equal metrics collapse to one representative, preferring one
    that has a measured wall clock. *)

val winner : entry list -> entry
(** The head of the frontier order: minimal time, ties broken as in
    {!frontier} so the winner is reproducible.
    @raise Invalid_argument on an empty list. *)

type result = {
  tr_program : string;
  tr_grid : grid;
  tr_total : int;  (** points evaluated before pruning *)
  tr_frontier : entry list;
  tr_winner : entry;
}

val make_result : program:string -> grid:grid -> entry list -> result
(** Prune and rank a full evaluation. @raise Invalid_argument when
    [entries] is empty. *)

val result_to_json : result -> Autocfd_obs.Json.t

val render : result -> string
(** ASCII Pareto-frontier table plus a one-line winner summary. *)
