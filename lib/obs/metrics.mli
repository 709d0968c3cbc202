(** Derived metrics of one traced run — the one fold of a trace into
    numbers: where did every simulated second go (per rank: compute /
    communication / blocked-idle), which combined synchronization point is
    responsible for every message, byte and blocked second and how long
    each of its executions took, which field-loop nest is responsible for
    every compute second, and how long the ranks of a Domains run waited.
    The JSON document, the Prometheus exposition, the report's measured
    tables and the [profile] text all render one [t].

    Sweep-scheduler events ({!Trace.Sched}) are not folded: the pool's
    own stats ([Autocfd_sched.Pool.stats]) are the account of pool
    activity.  Histograms are bucket counts on a {!Registry} ladder,
    bucketed by {!Registry.bucket}. *)

type rank_row = {
  rr_rank : int;
  rr_compute : float;
      (** seconds charged by [Sim.advance], or on a wall-clock Domains
          run, measured outside communication hooks *)
  rr_comm : float;  (** send/recv overheads + collective costs *)
  rr_blocked : float;  (** idle waiting on messages or collectives *)
  rr_finish : float;  (** the rank's final virtual time *)
}

type sync_row = {
  sr_id : int;  (** sync-point id (program order in the SPMD unit) *)
  sr_label : string;
  sr_loop : string option;  (** enclosing DO variable, if any *)
  sr_executions : int;  (** phase entries across all ranks *)
  sr_messages : int;  (** p2p sends + per-rank collective participations *)
  sr_bytes : int;
  sr_comm_time : float;  (** summed over ranks *)
  sr_blocked_time : float;  (** summed over ranks *)
  sr_phase_time : float;  (** total rank-seconds inside the phase *)
  sr_max : float;  (** the longest single execution *)
  sr_latency : int array;
      (** per-execution latencies on {!Registry.seconds_buckets} *)
}

type kind_row = {
  kb_kind : string;  (** ["send"], ["recv"] or ["collective"] *)
  kb_events : int;
  kb_bytes : int;
  kb_time : float;  (** comm seconds attributed to this kind *)
  kb_sizes : int array;  (** event payload sizes on {!Registry.bytes_buckets} *)
}
(** Per-kind communication breakdown.  The top-level [messages]/[bytes]
    totals count sends and per-rank collective participations; recv rows
    appear here only (their wire bytes were already counted at the
    sending side), except a Domains run's wall-clock recv rows: a copy
    out of a peer's array has no sender, so its bytes count in [bytes]
    and on its sync row. *)

type kernel_row = {
  kr_name : string;
  kr_line : int;  (** source line of the nest's outermost DO *)
  kr_fused : bool;
  kr_frag : int;  (** loop-fission fragment index (1-based), 0 = unsplit *)
  kr_nfrags : int;  (** fragment count of the source nest, 0 = unsplit *)
  kr_calls : int;  (** nest executions, summed over ranks *)
  kr_flops : float;  (** self flops (excluding inner profiled nests) *)
  kr_bytes : float;  (** bytes moved by the fused kernel tier (0 = unknown) *)
  kr_self : float;  (** self compute seconds, summed over ranks *)
}
(** One field-loop nest, aggregated over every {!Trace.Kernel} summary
    event (i.e. over ranks).  Sorted by descending self time. *)

type wait_row = {
  wr_kind : string;  (** ["barrier"] (barriers, collectives) or ["recv"] *)
  wr_rank : int;
  wr_seconds : float;  (** summed *)
  wr_hist : int array;  (** wait lengths on {!Registry.seconds_buckets} *)
}
(** One Domains-engine rank's waits of one kind: the {!Trace.Blocked}
    events timed on the host wall clock. *)

type t = {
  ranks : rank_row array;
  syncs : sync_row list;  (** ascending sync-point id; executed points only *)
  elapsed : float;
  messages : int;  (** sends + per-rank collective participations *)
  bytes : int;  (** payload bytes of the above (and of Domains copies) *)
  by_kind : kind_row list;  (** in first-appearance order *)
  kernels : kernel_row list;  (** descending self time *)
  collectives : (string * int) list;
      (** per-rank collective participations by operation, ascending *)
  waits : wait_row list;  (** ascending kind, then rank *)
  faults : (string * int) list;
      (** injected fault events (loss/corrupt/duplicate/stall/crash) by
          kind, ascending *)
  retransmits : int;  (** reliable-transport retransmissions *)
  checkpoints : int;  (** recovery-layer snapshots taken (across ranks) *)
  restores : int;  (** recovery-layer snapshot restores (across ranks) *)
  checkpoint_bytes : int;  (** bytes moved by snapshots and restores *)
  wall : bool;
      (** the run was timed on the host wall clock (the Domains engine):
          [elapsed] and the rank, sync and kernel seconds are measured,
          not simulated *)
}

val of_trace : Trace.t -> t

val to_json : t -> Json.t
(** Compact machine-readable document (schema ["autocfd-metrics/3"]):
    the totals and the kind, rank, sync-point and kernel rows.  The
    histograms and the per-operation, per-fault and wait counts are
    rendered by {!to_prometheus}. *)

val to_prometheus : t -> string
(** The rows as Prometheus text exposition: compute and blocked seconds,
    per-kind message, byte and comm-second counters with message-size
    histograms, collectives by operation, per-sync-point execution
    counters and latency histograms labelled by sync id and label,
    fault, retransmit and checkpoint counters, per-nest kernel counters
    and self seconds, and the Domains engine's waits.  The HELP text of
    every seconds family names the run's clock: ["virtual"] on the
    simulator, ["wall-clock"] when [wall]. *)
