(** Reliable point-to-point transport over the raw eager primitives.

    One {!t} per rank per run.  Every payload travels inside a
    seq-numbered, checksummed envelope; the receiver acknowledges each
    envelope on a dedicated ack tag (data tag + 2{^20}) and suppresses
    duplicates; the sender buffers unacknowledged envelopes and
    retransmits them (all of them, selective-repeat style) whenever one
    of its own receive deadlines expires.  Corrupted envelopes fail their
    checksum and are dropped — indistinguishable from loss, and recovered
    the same way.

    The per-rank watchdog comes from {!Sim.recv_deadline}: deadlines fire
    only when the whole simulation would otherwise stall, so retries cost
    nothing while data flows, and every round waits the same timeout, one
    MTU flight time on the run's network.  After 20 fruitless rounds an
    endpoint falls back to an unbounded blocking wait; if the peer is
    truly gone (crashed, or an unrecoverable loss rate), the simulator
    raises {!Sim.Timeout} with per-rank diagnostics.

    Sends stay eager (never block).  Delivery on one (src, tag) stream is
    exactly-once and in order.  Call {!flush} before every collective and
    at the end of the rank's work so no envelope is abandoned while its
    sender parks somewhere a retransmit cannot happen. *)

type t

val create : Sim.comm -> t

val send : t -> dest:int -> tag:int -> float array -> unit
(** Envelope, buffer as unacknowledged, send eagerly. *)

val recv : t -> src:int -> tag:int -> float array
(** Next in-sequence payload on (src, tag): exactly-once, in order,
    checksum-verified.  Retransmits this endpoint's own unacknowledged
    envelopes on every expired deadline while waiting. *)

val flush : t -> unit
(** Block until every envelope this endpoint sent has been acknowledged,
    retransmitting as needed, for at most 4 fruitless rounds: the peer
    may legitimately never re-ack (it only acks when it touches the
    stream, and it may already be parked in a collective), so the
    remaining envelopes then get one last retransmit and are
    abandoned. *)

type stats = {
  rl_retransmits : int;
  rl_dup_suppressed : int;  (** duplicate envelopes discarded *)
  rl_checksum_failures : int;  (** corrupted envelopes discarded *)
  rl_acks : int;  (** acknowledgements consumed *)
}

val stats : t -> stats
