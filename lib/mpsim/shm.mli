(** Real shared-memory runtime for the [Domains] execution engine.

    [run ~nranks body] executes [nranks] copies of [body] in parallel,
    each on its own OCaml 5 domain (rank 0 on the calling domain).  Where
    {!Sim} multiplexes cooperative fibers over a virtual clock, this
    module provides the same rendezvous vocabulary over atomics, a mutex
    and a condition variable, timed with the wall clock:

    - {!barrier} counts arrivals in an atomic; the last arrival advances
      a generation.  A waiter polls the generation briefly (tens of
      microseconds) when every rank has a core
      ([nranks <= Domain.recommended_domain_count ()]), then sleeps on
      the condvar; an oversubscribed run sleeps at once;
    - {!allreduce} is deterministic: every rank folds the contributed
      values in rank order 0..n-1 with exactly {!Sim}'s combine order, so
      a [Domains] run is bit-identical to a simulated one;
    - {!bcast} publishes the root's payload through a shared slot;
    - {!send}/{!recv} are copying mailboxes for pipeline streams, keyed
      (src, dest, tag) like the simulator's eager channels, FIFO per key.

    Fields of the executed program need no marshalling: OCaml 5 domains
    share one heap, so a plain [float array] written before a barrier is
    readable by every other rank after it (the barrier's atomics provide
    the happens-before edge).

    Every blocking wait is measured ({!rank_stats}); barrier-wait samples
    feed the observability layer's histograms and the per-rank blocked
    spans of the wall-clock trace lane.

    An exception in any rank poisons the run: all ranks blocked at a
    barrier (polling or asleep), mailbox or collective are woken and
    unwound, the domains are joined, and {!Rank_failure} carries the
    original exception. *)

type comm

exception Rank_failure of int * exn
(** Raised by {!run} after joining all domains when a rank's body raised:
    carries the first rank to fail and its exception. *)

val rank : comm -> int
val nranks : comm -> int

val barrier : comm -> unit
(** Barrier across all ranks (see above).  The wait (if any), polling
    included, is recorded as a barrier-wait sample. *)

val allreduce : comm -> [ `Max | `Min | `Sum ] -> float -> float
(** Global reduction; every rank receives the combined value.  The fold
    runs in rank order 0..n-1 with [Float.max] / [Float.min] / [(+.)],
    matching {!Sim.allreduce} bit-for-bit. *)

val bcast : comm -> root:int -> float array -> float array
(** Root's payload is delivered (as a fresh copy) to every rank. *)

val send : comm -> dest:int -> tag:int -> float array -> unit
(** Nonblocking mailbox send; the payload is copied. *)

val recv : comm -> src:int -> tag:int -> float array
(** Blocking mailbox receive matching exactly (src, tag).  The wait (if
    any) is recorded as a receive-wait sample. *)

val time : comm -> float
(** Wall-clock seconds since the enclosing {!run} started. *)

val waited : comm -> float
(** Seconds this rank has spent blocked so far in barriers, collectives
    and mailbox receives: the sum of its recorded waits. *)

val wait_count : comm -> int
(** Waits this rank has recorded so far: its next wait is
    [rs_waits]' element of that index. *)

type wait = {
  w_start : float;  (** seconds since run start when the wait began *)
  w_dur : float;
      (** seconds spent blocked; the wall clock steps in whole
          microseconds, so a short wait can read 0 *)
  w_barrier : bool;  (** [true] for barrier/collective assembly waits,
                         [false] for mailbox receive waits *)
}

type rank_stats = {
  rs_wall : float;  (** seconds from run start to this rank's return *)
  rs_barrier_wait : float;  (** total seconds blocked in barriers *)
  rs_barrier_calls : int;
  rs_recv_wait : float;  (** total seconds blocked in mailbox receives *)
  rs_sends : int;
  rs_recvs : int;
  rs_bytes : int;  (** mailbox payload bytes sent *)
  rs_waits : wait list;  (** every measured blocking wait, in time order *)
}

type stats = { elapsed : float; ranks : rank_stats array }
(** [elapsed] is the slowest rank's wall clock — the parallel makespan. *)

val run : nranks:int -> (comm -> unit) -> stats
(** @raise Invalid_argument when [nranks < 1].
    @raise Rank_failure when any rank's body raised (see above); the
    remaining ranks are unwound and joined first, so no domain leaks. *)
