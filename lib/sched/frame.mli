(** Length-prefixed, checksummed frames over a stream socket, for the
    sweep fabric ({!Fabric}).  One frame (integers big-endian):

    {v len:4 | fnv64(payload):8 | payload v}

    The checksum is {!Job.fnv64}.  A Unix-domain or TCP stream already
    delivers bytes in order, without loss or duplication, while the
    connection lives, so a frame carries no sequence number and nothing
    is acknowledged or retransmitted.  A length above 64 MiB or a
    checksum mismatch means the peer (or the path to it) is broken: the
    connection ends with {!Closed}, as if the peer had died, and the
    fabric recovers the same way — the master requeues the worker's
    lease, a worker treats it as its master going away.

    A {!conn} may be written from several threads (the fabric worker's
    heartbeat thread writes concurrently with its job loop); each frame
    is written whole under the connection's lock.  [pump] must stay on
    one thread. *)

val encode : string -> Bytes.t
(** One complete frame.  @raise Invalid_argument above 64 MiB *)

type reader
(** Bytes received but not yet decoded.  A reader does no I/O: bytes go
    in, and a payload, "need more" or the corruption verdict comes
    out. *)

val empty : reader

val feed : reader -> string -> reader
(** Append bytes read from the stream. *)

type step =
  | Payload of string * reader
      (** the next frame's payload, and the reader past that frame *)
  | Need_more  (** no complete frame buffered yet *)
  | Corrupt  (** length out of bounds or checksum mismatch *)

val next : reader -> step

exception Closed
(** The connection is over: EOF (also in the middle of a frame), any
    socket error on read or write other than [EINTR] (which is retried),
    a corrupt frame, or a send after {!close}. *)

type conn

val conn : Unix.file_descr -> conn
(** Wrap a connected stream socket.  Ignores [SIGPIPE] process-wide, so
    that writing to a dead peer raises {!Closed}. *)

val fd : conn -> Unix.file_descr

val send : conn -> string -> unit
(** Write one payload as one frame.  Thread-safe.  @raise Closed *)

val pump : conn -> string list
(** Read once from the socket (call when [select] says it is readable,
    or to block until it is) and return the payloads of the frames it
    completed, in order.  @raise Closed *)

val corrupt : conn -> int
(** Corrupt frames [pump] has met on this connection: 0 or 1, since the
    first one ends it. *)

val close : conn -> unit
(** Close the descriptor (idempotent); later sends raise {!Closed}. *)
