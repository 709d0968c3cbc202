(** Deterministic, seeded fault schedules for the simulated cluster.

    A {!spec} describes the failure behaviour of a run: per-message loss,
    duplication and payload bit-corruption probabilities, per-link jitter
    and degradation (a {!Netmodel} perturbation applied to individual
    (src, dest) pairs), transient rank stalls (stragglers) and hard rank
    crashes triggered at a virtual time or at a rank's nth communication
    operation.

    Every verdict is a pure function of [(seed, src, dest, per-link send
    index)] — drawn from a private splitmix/xoshiro stream per message —
    so a fault schedule is exactly reproducible and, crucially,
    independent of scheduling order: injecting faults never perturbs the
    fault-free ordering decisions of {!Sim.run}.

    A {!plan} is the mutable run-state of a spec (per-link send counters,
    per-rank operation counters, one-shot trigger flags, fault counters).
    Crash triggers are one-shot {e across restarts}: {!begin_run} resets
    the counters that index the deterministic draws but keeps crash
    state, so a recovery layer re-running the same plan sees each crash
    exactly once. *)

type trigger =
  | At_time of float  (** fires at the first check at or after this virtual time *)
  | At_op of int  (** fires at the rank's nth communication operation (1-based) *)

type stall_spec = {
  sl_rank : int;
  sl_at : trigger;
  sl_duration : float;  (** virtual seconds the rank goes silent *)
}

type crash_spec = { cr_rank : int; cr_at : trigger }

type spec = {
  fs_seed : int;
  fs_loss : float;  (** probability a message is dropped in flight *)
  fs_duplication : float;  (** probability a message is delivered twice *)
  fs_corruption : float;  (** probability one payload bit is flipped *)
  fs_jitter : float;  (** max uniform extra latency per message, seconds *)
  fs_reorder : float;
      (** probability a message overtakes the one queued just before it
          on the same link, shuffling delivery order at the receiver *)
  fs_degrade : (int * int * float) list;
      (** (src, dest, factor): wire time of that link multiplied by factor *)
  fs_stalls : stall_spec list;
  fs_crashes : crash_spec list;
}

val spec :
  seed:int ->
  ?loss:float ->
  ?duplication:float ->
  ?corruption:float ->
  ?jitter:float ->
  ?reorder:float ->
  ?degrade:(int * int * float) list ->
  ?stalls:stall_spec list ->
  ?crashes:crash_spec list ->
  unit ->
  spec
(** All rates default to 0, all lists to empty.
    @raise Invalid_argument on a probability outside [0, 1] or a negative
    jitter/duration/degradation factor below 1. *)

type plan

val make : spec -> plan
val spec_of : plan -> spec

type counters = {
  fc_drops : int;
  fc_duplicates : int;
  fc_corruptions : int;
  fc_reorders : int;
      (** reorder verdicts drawn; one with no earlier message pending on
          its link is a delivery-order no-op *)
  fc_stalls : int;
  fc_crashes : int;
}

val counters : plan -> counters
(** Cumulative over every run (and restart) of the plan. *)

val any_fired : plan -> bool
(** Has any fault (of any kind) been injected yet? *)

(** {2 Simulator-facing interface} *)

val begin_run : plan -> unit
(** Reset per-run state (link send indices, rank op counters, stall
    trigger flags) before a fresh {!Sim.run} attempt.  Crash trigger
    flags and the cumulative {!counters} survive, so a crashed rank does
    not crash again when a recovery layer restarts the run. *)

type send_verdict = {
  sv_drop : bool;
  sv_duplicate : bool;  (** deliver a second copy (ignored when dropped) *)
  sv_corrupt : (int * int) option;  (** (word index, bit index) to flip *)
  sv_delay : float;  (** extra seconds of flight time (jitter), >= 0 *)
  sv_reorder : bool;
      (** deliver this message ahead of the previously queued one *)
  sv_factor : float;  (** wire-time multiplier for this link, >= 1 *)
}

val clean_verdict : send_verdict

val on_send : plan -> src:int -> dest:int -> words:int -> send_verdict
(** Draw the fate of the next message on link (src, dest).  Advances the
    link's send index; the verdict is a pure function of the spec seed,
    the link and that index. *)

type op_action =
  | Op_none
  | Op_stall of float  (** pause the rank for this many virtual seconds *)
  | Op_crash  (** the rank halts: its fiber must be abandoned *)

val on_op : plan -> rank:int -> time:float -> is_op:bool -> op_action
(** Check the rank's stall/crash triggers at virtual time [time].
    [is_op] counts the call against the rank's operation counter (true
    for communication operations, false for passive time checks).  At
    most one action is returned per call; a simultaneous crash fires on
    the next check. *)
