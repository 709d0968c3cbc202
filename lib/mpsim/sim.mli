(** Deterministic simulated message-passing cluster.

    [run ~nranks body] executes [nranks] copies of [body] as cooperative
    fibers (OCaml effects) in a single domain, with MPI-flavoured blocking
    point-to-point and collective operations and a virtual clock per rank
    driven by the {!Netmodel} cost model plus explicit {!advance} calls for
    computation.  Scheduling is deterministic (rank order), so runs are
    exactly reproducible.

    Sends are buffered (eager): a send never blocks; a receive blocks until
    a matching message (source, tag) has been enqueued.

    With [?faults] (a {!Fault.plan}), the simulator injects the plan's
    seeded message loss / duplication / corruption / jitter / link
    degradation inside [send], and its rank stalls and crashes at every
    communication operation — without changing the fault-free scheduling
    order, since fault verdicts depend only on per-link sequence numbers,
    never on global interleaving. *)

type comm

exception Deadlock of string
(** Raised by {!run} when no fiber can make progress and no fault has
    been injected: a genuine programming error in the simulated code. *)

exception Timeout of string
(** Raised by {!run} when no fiber can make progress but faults {e have}
    been injected (a crashed rank, or dropped/corrupted messages nobody
    retransmitted): the run is stuck because of the fault schedule, not a
    program bug.  Carries the same per-rank diagnostics as {!Deadlock};
    a recovery layer catches this and restarts from a checkpoint. *)

val rank : comm -> int
val nranks : comm -> int

val send : comm -> dest:int -> tag:int -> float array -> unit
(** Buffered send of a float payload.  The array is copied. *)

val recv : comm -> src:int -> tag:int -> float array
(** Blocking receive matching exactly (src, tag). *)

val recv_deadline :
  comm -> src:int -> tag:int -> deadline:float -> float array option
(** Blocking receive with a watchdog: returns [Some data] like {!recv},
    or [None] once the virtual clock would pass [deadline] with no
    matching message delivered.  Deadlines only fire when the whole
    simulation would otherwise stall (earliest deadline first, lowest
    rank on ties), so a slow-but-live peer never triggers a spurious
    timeout. *)

val try_recv : comm -> src:int -> tag:int -> float array option
(** Nonblocking probe: [Some data] if a matching message has already
    arrived on this rank's virtual clock, [None] otherwise.  Never
    blocks and never advances the clock except the receive overhead of
    an actual delivery. *)

val barrier : comm -> unit

val allreduce : comm -> [ `Max | `Min | `Sum ] -> float -> float
(** Global reduction; every rank receives the combined value. *)

val bcast : comm -> root:int -> float array -> float array
(** Root's payload is delivered to every rank (root included). *)

val advance : comm -> float -> unit
(** Charge local computation time to the rank's virtual clock. *)

val time : comm -> float
(** The rank's current virtual time. *)

val tracer_of : comm -> Autocfd_obs.Trace.t option
(** The tracer of the enclosing run, so protocol layers built on the raw
    primitives (e.g. {!Reliable}) can record their own events. *)

val net_of : comm -> Netmodel.t
(** The network model of the enclosing run. *)

type stats = {
  elapsed : float;  (** max rank finish time — the simulated wall clock *)
  rank_times : float array;
  messages : int;  (** point-to-point messages *)
  bytes : int;  (** point-to-point payload bytes *)
  collectives : int;
  rank_sends : int array;  (** point-to-point messages sent per rank *)
  rank_recvs : int array;  (** point-to-point messages received per rank *)
  rank_blocked : float array;
      (** per rank, virtual seconds spent idle: waiting for a message that
          had not yet arrived, or for the other ranks to assemble at a
          collective *)
}

val run :
  ?net:Netmodel.t ->
  ?tracer:Autocfd_obs.Trace.t ->
  ?faults:Fault.plan ->
  nranks:int ->
  (comm -> unit) ->
  stats
(** @raise Deadlock when ranks block forever with no fault injected; the
    message lists, for every blocked rank, what it is parked in — the
    (src, tag) of a pending receive, or the collective (barrier,
    allreduce with its operation, bcast with its root) — and its virtual
    time.
    @raise Timeout instead of [Deadlock] when the stall follows injected
    faults (see {!Timeout}); same diagnostics, crashed ranks included.
    @raise Invalid_argument when [nranks < 1].
    Any exception raised by a fiber is re-raised after annotating it with
    the rank.

    When [tracer] is given, every virtual-clock mutation is recorded as an
    {!Autocfd_obs.Trace} event (compute, send/recv overheads, blocked
    intervals with the matched (src, tag), collective assembly and cost,
    injected faults), partitioning each rank's timeline exactly;
    simulated timings are identical with and without a tracer.

    When [faults] is given, {!Fault.begin_run} is called on the plan
    first, so re-running with the same plan replays the same message
    fates while one-shot crash triggers persist across attempts. *)

exception Rank_failure of int * exn
(** A rank's body raised: the rank and its exception.  [Printexc]
    prints it as ["rank N: "] followed by the inner exception. *)
