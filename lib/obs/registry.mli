(** Prometheus text exposition: the log₂ bucket ladders every histogram
    of {!Metrics} is counted on, the text rendering of metric families,
    and a parser for that text.

    The registry holds no data of its own: {!Metrics.to_prometheus}
    writes families from the rows of one {!Metrics.t}, and callers with
    other sources (the sweep pool's stats) render theirs with the same
    {!to_prometheus}. *)

val log_buckets : lo:float -> hi:float -> float array
(** Powers-of-two bounds [lo, 2lo, 4lo, ...] up to and including the
    first bound [>= hi].
    @raise Invalid_argument unless [0 < lo < hi]. *)

val seconds_buckets : float array
(** [log_buckets ~lo:1e-6 ~hi:16.0] — 1 µs to ~16 s. *)

val bytes_buckets : float array
(** [log_buckets ~lo:64.0 ~hi:16777216.0] — 64 B to 16 MiB. *)

val bucket : float array -> float -> int
(** [bucket bounds v] is the slot an observation [v] is counted in:
    the first bound [>= v] ("le" semantics, so a value exactly on a
    bound lands in that bound's bucket), or [Array.length bounds], the
    [+Inf] overflow slot, above every bound.  Histogram counts therefore
    have one slot more than their bounds. *)

type hist = {
  bounds : float array;  (** ascending upper bounds *)
  counts : int array;  (** per-bucket (non-cumulative) counts, see {!bucket} *)
  sum : float;  (** sum of the observations *)
}

type samples =
  | Counter of ((string * string) list * float) list
  | Gauge of ((string * string) list * float) list
  | Histogram of ((string * string) list * hist) list
      (** series, each a label set and its value, in output order *)

type family = { name : string; help : string; samples : samples }

val to_prometheus : family list -> string
(** Prometheus text exposition format, families sorted by name and
    their series in the order given: [# HELP]/[# TYPE] headers, one
    sample line per series, histograms expanded into cumulative
    [_bucket{le="..."}] samples plus [_sum] and [_count].  A family with
    no series is left out. *)

type sample = {
  s_name : string;
  s_labels : (string * string) list;
  s_value : float;
}

exception Parse_error of string

val parse_prometheus : string -> sample list
(** Parse text exposition format back into samples (comments and blank
    lines skipped; histogram [_bucket]/[_sum]/[_count] samples appear
    under those suffixed names).  Used by the round-trip tests and by
    tooling that scrapes [profile --prom] output.
    @raise Parse_error on malformed input. *)
