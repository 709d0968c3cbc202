(** Combining synchronization regions (paper §5.1.2, Fig. 6).

    [optimal] is the paper's algorithm: sort the upper-bound regions by
    their first position and grow a running intersection, closing a group
    exactly when the next region no longer intersects it — this yields the
    minimum number of combined synchronization points (interval
    point-stabbing).

    [first_fit] is the suboptimal strategy of Fig. 6(c), kept as an
    ablation baseline: each region joins the first already-open group it
    overlaps, which can produce more groups than the minimum. *)

type group = {
  gr_block : Layout.block_id;
  gr_slot : int;  (** chosen insertion slot (latest common position) *)
  gr_clock : int;
  gr_regions : Region.t list;
  gr_transfers : Autocfd_fortran.Ast.transfer list;
      (** merged communication: the aggregated data items *)
}

val optimal : layout:Layout.t -> Region.t list -> group list
val first_fit : layout:Layout.t -> Region.t list -> group list

val minimum_stabbing_count : (int * int) list -> int
(** Textbook minimum point-stabbing size of a set of integer intervals;
    exposed so tests can cross-check [optimal] against brute force. *)
