(** Fault-tolerant distributed sweep fabric: a socket master/worker pool.

    {!Pool} spreads a sweep over one host's domains; the fabric spreads
    it over {e processes} — a master listening on a Unix-domain or TCP
    socket hands out content-addressed {!Job}s and workers (spawned as
    [autocfd worker --connect ADDR], possibly on other hosts) stream back
    result JSON.  Every message travels as one {!Frame}: a length and an
    FNV-64 checksum ahead of the payload.  The stream socket already
    delivers in order and without loss, so nothing is retransmitted; a
    frame that fails its check ends the connection, and the master
    recovers it like a dead worker.

    Robustness is the point.  The life of a job:

    {v pending -> leased -> done
         ^          |
         |          +-- lease expires (no heartbeat) ... requeue
         |          +-- worker dies (EOF, socket error,
         |          |   corrupt frame) ................. requeue
         |          +-- worker reports failure ......... retry
         +---- backoff * 2^(attempt-1) * (1 + jitter) ---+
                 (after max_attempts: quarantined) v}

    - {b Leases + heartbeats}: a dispatched job is owned by its worker
      for [fb_lease] seconds; each heartbeat extends the lease.  A silent
      worker forfeits the job {e and is fenced} — its connection is cut,
      because a zombie left "ready" would win the requeued job straight
      back and starve it into quarantine.
    - {b Requeue on crash}: a worker's death returns its leased job to
      the queue.  Side effects stay at-most-once because results are
      only persisted by the master through the cache's atomic
      temp+rename writes, and only the first completion of a job counts
      — late results from a forfeited lease are accepted if the job is
      still open and discarded as stale otherwise.
    - {b Bounded retries}: a job that fails or is forfeited
      [fb_max_attempts] times is quarantined — reported as an error row,
      never re-dispatched, and the sweep still completes.
    - {b Graceful degradation}: if no worker is connected within
      [fb_grace] seconds of a batch starting — or every worker dies
      mid-batch and none reconnects — the remaining jobs run in-process
      (and the fabric says so on stderr, once).

    Results come back in submission order, so a fabric sweep renders
    byte-identically to a serial {!Pool} sweep.  [run] returns
    {!Pool.stats}-shaped per-batch statistics (worker index in place of
    domain index) so existing reporting works unchanged; {!stats} adds
    the fabric's own cumulative robustness counters. *)

type addr = Unix_path of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:/path"] or a bare path → {!Unix_path}; ["host:port"] →
    {!Tcp}. *)

val addr_to_string : addr -> string

exception Fabric_error of string
(** Raised by {!create} when the listen address cannot be bound. *)

type cfg = {
  fb_grace : float;  (** seconds to wait for a first worker (default 5) *)
  fb_lease : float;  (** job lease seconds, heartbeat-extended (30) *)
  fb_heartbeat : float;  (** worker heartbeat period hint (1) *)
  fb_max_attempts : int;  (** attempts before quarantine (3) *)
  fb_backoff : float;  (** base retry delay seconds (0.05) *)
  fb_backoff_mult : float;  (** exponential backoff multiplier (2) *)
  fb_fallback_jobs : int option;
      (** domain count for the degraded in-process pool (None: pool
          default) *)
  fb_chaos_kill : int option;
      (** fault-injection hook for the CI chaos gate: after this many
          worker-completed jobs, SIGKILL the next spawned worker right
          as a job is leased to it (once); [None] = never *)
}

val default_cfg : cfg

type t

val create : ?cfg:cfg -> listen:addr -> unit -> t
(** Bind and listen.  A stale Unix-domain socket file at the path is
    replaced.  [Tcp (host, 0)] picks a free port — read it back with
    {!addr}.  @raise Fabric_error when binding fails. *)

val addr : t -> addr
(** The actual bound address. *)

val spawn_worker : t -> argv:string array -> int
(** Fork [argv] (argv.(0) is the executable) as a worker process and
    return its pid.  The child inherits stdin/stdout/stderr; it is
    reaped by {!shutdown}.  Only spawned pids are eligible for the
    [fb_chaos_kill] hook. *)

val run :
  t ->
  ?cache:Cache.t ->
  ?tracer:Autocfd_obs.Trace.t ->
  Job.t list ->
  (Autocfd_obs.Json.t, string) result array * Pool.stats
(** Execute one batch and return results in submission order, exactly
    like {!Pool.run}.  Cache hits are served by the master without
    touching a worker; jobs without a [jb_spec] run in the master
    process.  With [tracer] set, per-job {!Autocfd_obs.Trace.Sched}
    events ([run]/[hit]/[error]) and fabric lifecycle events ([lease],
    [requeue], [expire], [death], [quarantine]) are recorded after the
    batch, on the handling worker's "rank" with wall-clock timestamps.
    A quarantined job's slot reports
    [Error "quarantined after N attempts: ..."]. *)

type worker_stats = {
  ws_id : string;  (** the worker's self-reported name *)
  ws_pid : int option;  (** its pid, when it said hello *)
  ws_alive : bool;
  ws_leases : int;  (** jobs ever leased to it *)
  ws_done : int;  (** results it delivered *)
  ws_corrupt : int;
      (** corrupt frames from it: 0 or 1, since the first one cuts the
          connection *)
}

type stats = {
  fs_workers : worker_stats list;  (** in connection order *)
  fs_requeues : int;  (** leased jobs returned to the queue *)
  fs_retries : int;  (** re-dispatches for any reason *)
  fs_lease_expiries : int;
  fs_worker_deaths : int;
  fs_quarantined : int;
  fs_stale_results : int;  (** late results for already-done jobs *)
  fs_corrupt_frames : int;  (** connections cut for a corrupt frame *)
  fs_retransmits : int;
      (** always 0: frames are never retransmitted; kept because the
          [benchmark/] sweep workload reports it *)
  fs_dup_suppressed : int;  (** always 0, like [fs_retransmits] *)
  fs_degraded : bool;  (** some batch fell back to the in-process pool *)
}

val stats : t -> stats
(** Cumulative over the fabric's lifetime. *)

val shutdown : t -> unit
(** Send every worker a shutdown message, close all sockets, remove the
    Unix-domain socket file and reap spawned workers (escalating to
    SIGKILL after a short wait).  Idempotent. *)

(** {2 Wire protocol} *)

type msg =
  | Hello of { mh_worker : string; mh_pid : int }
  | Assign of { ma_id : int; ma_label : string; ma_spec : Autocfd_obs.Json.t }
  | Heartbeat of { mb_id : int }
  | Result of { mr_id : int; mr_result : Autocfd_obs.Json.t }
  | Failure of { mf_id : int; mf_error : string }
  | Shutdown

val msg_to_string : msg -> string
(** JSON, carried as one {!Frame} payload. *)

val msg_of_string : string -> (msg, string) result

(** {2 Worker side} *)

val serve :
  connect:addr ->
  ?id:string ->
  ?heartbeat:float ->
  resolve:(Autocfd_obs.Json.t -> Autocfd_obs.Json.t) ->
  unit ->
  (unit, string) result
(** Run one worker: connect to the master, say hello, then loop —
    resolve each assigned spec (a background thread heartbeats while the
    job runs) and stream the result back — until the master says
    shutdown or hangs up.  An exception from [resolve] becomes a
    {!Failure} message; the worker survives it.  A corrupt frame from the
    master ends the loop like a hang-up.  [Error msg] means the
    connection could not be established ([msg] is a one-line
    diagnostic). *)
