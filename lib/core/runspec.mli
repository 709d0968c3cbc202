(** One record for everything that parameterizes a run.

    After the engine, observability and resilience work the driver's
    entry points had sprouted seven independent optional arguments
    ([?engine ?net ?flop_time ?input ?tracer ?faults ?recovery]); a
    [Runspec.t] folds them — plus the optional reference-machine
    calibration that [run_traced] used to imply — into one value that can
    be built once, passed around, compared, and serialized.

    Since the tune work the record also carries the {e plan-time} knobs
    — [nprocs], [parts], [combine], [fission] — so one value names a
    complete point in the configuration search space: how the program
    is partitioned and restructured as well as how it runs.
    {!Autocfd_core.Tune} enumerates the product space as a list of
    runspecs; the serialized form is the tune job key, the cache key and
    the reproduction recipe all at once.

    The canonical JSON codec ({!to_json} / {!of_json}) is load-bearing:
    it is the run-describing half of every sweep cache key
    ({!Autocfd_sched}), and it makes CLI [--json] output self-describing
    about what actually ran.  [to_json] is total and deterministic;
    [of_json (to_json s)] re-renders to the same JSON text (round-trip
    tested).  Decoding is backward compatible: the plan-time fields are
    absent in documents written by the pre-tune codec and decode to
    their [default] values, an unknown key (such as the retired
    ["fuse"]) is ignored, and the retired ["net"] and ["flop_time"]
    are written and accepted at their one old value (the fast network,
    [0]), so every spec document keeps its bytes.  The one lossy field
    is [tracer]: a live tracer cannot be serialized, so it encodes as
    the boolean ["traced"] and decodes to a fresh empty tracer when
    true. *)

type t = {
  engine : Autocfd_interp.Spmd.engine;  (** default [Fused] *)
  machine : Autocfd_perfmodel.Model.machine option;
      (** the one cost setting: when set, the run charges the machine's
          network and the plan-calibrated per-flop cost; default [None],
          the fast network ({!Autocfd_mpsim.Netmodel.fast}) and free
          flops (a correctness run) *)
  input : float list;  (** data served to READ statements *)
  tracer : Autocfd_obs.Trace.t option;
  faults : Autocfd_mpsim.Fault.plan option;
  recovery : Autocfd_interp.Spmd.recovery option;
  nprocs : int;
      (** rank count used when [parts] is [None]; default [4] *)
  parts : int array option;
      (** explicit partition shape; [None] (default) lets
          {!Driver.plan} pick {!Driver.auto_parts} for [nprocs] *)
  combine : Autocfd_syncopt.Optimizer.combine_strategy;
      (** sync-combining strategy; default [Optimal] (paper Fig. 6(b)) *)
  fission : bool;  (** run the loop-fission pass at load; default [true] *)
}

val default : t
(** Fused engine, fast network, zero flop cost, no machine, no input, no
    tracer, no faults, no recovery — exactly what the argument defaults
    of the old entry points added up to — plus auto-partitioning over 4
    ranks, optimal sync combining and fission on. *)

val with_engine : Autocfd_interp.Spmd.engine -> t -> t
val with_machine : Autocfd_perfmodel.Model.machine option -> t -> t
val with_input : float list -> t -> t
val with_tracer : Autocfd_obs.Trace.t option -> t -> t
val with_faults : Autocfd_mpsim.Fault.plan option -> t -> t
val with_recovery : Autocfd_interp.Spmd.recovery option -> t -> t
val with_nprocs : int -> t -> t
val with_parts : int array option -> t -> t
val with_combine : Autocfd_syncopt.Optimizer.combine_strategy -> t -> t
val with_fission : bool -> t -> t
(** Functional setters, argument-first so they pipe:
    [Runspec.(default |> with_engine Domains |> with_input [ 2.5 ])]. *)

val parts_to_string : int array -> string
val parts_of_string : string -> int array
(** The ["2x2x1"] shape syntax shared by the JSON codec and the CLI.
    [parts_of_string] ignores case and blanks around a part, and raises
    {!Autocfd_obs.Json.Parse_error} on a malformed shape: an empty part,
    or one that is not a positive integer. *)

val combine_to_string : Autocfd_syncopt.Optimizer.combine_strategy -> string
val combine_of_string : string -> Autocfd_syncopt.Optimizer.combine_strategy
(** ["optimal"] / ["first-fit"]. *)

val engine_to_string : Autocfd_interp.Spmd.engine -> string
val engine_of_string : string -> Autocfd_interp.Spmd.engine
(** ["fused"] / ["domains"]; the one codec for engine names (specs, job
    keys, the CLI's [--engine]).  [engine_of_string] raises
    {!Autocfd_obs.Json.Parse_error} on any other name, the retired tree
    and compiled engine names included. *)

val to_json : t -> Autocfd_obs.Json.t
(** Stable canonical encoding; fixed field set, deterministic rendering
    through {!Autocfd_obs.Json.canonical}. *)

val of_json : Autocfd_obs.Json.t -> t
(** @raise Autocfd_obs.Json.Parse_error on a malformed document, and on
    a retired ["net"] or ["flop_time"] field holding anything but its
    old default (the fast network, [0]): such a spec is spelled with
    ["machine"] now. *)

val machine_to_json : Autocfd_perfmodel.Model.machine -> Autocfd_obs.Json.t
(** Exposed for sweep cache keys that mention a machine outside a full
    runspec. *)
