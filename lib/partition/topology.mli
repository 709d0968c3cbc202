(** Grid partitioning (paper §4.1): split the flow-field grid into an
    x×y×z arrangement of subgrids, sized as equally as possible (load
    balance) with demarcation lines chosen so that the amount of
    communication is minimized. *)

type t

type direction = Plus | Minus

val create : grid:int array -> parts:int array -> t
(** [create ~grid ~parts] partitions a grid of extents [grid] into
    [parts.(d)] slabs per dimension [d].
    @raise Invalid_argument if ranks differ, any part count is < 1, or a
    dimension has fewer points than parts. *)

val grid : t -> int array
val parts : t -> int array
val ndims : t -> int
val nranks : t -> int

val coords_of_rank : t -> int -> int array
val rank_of_coords : t -> int array -> int
val block : t -> int -> Block.t
(** The subgrid owned by a rank. *)

val block_of_coords : t -> int array -> Block.t

val owner : t -> int array -> int
(** Rank owning a given (1-based) grid point. *)

val neighbor : t -> rank:int -> dim:int -> dir:direction -> int option
(** Neighboring rank across a demarcation line, [None] at the domain
    boundary. *)

val is_cut : t -> int -> bool
(** [is_cut t d] — does the partition actually split dimension [d]
    (parts > 1)?  Dependencies along uncut dimensions need no
    synchronization: this is the heart of "analysis after partitioning". *)

val cut_dims : t -> int list

val max_block_points : t -> int

val comm_points_per_rank : t -> depth:int array -> int
(** Worst-case number of grid points a single rank communicates per
    exchange: for every cut dimension, [depth.(d)] planes per face, two
    faces for interior ranks.  This is the quantity the paper's §6.2
    partitioning discussion reasons about. *)

val factorizations : int -> int -> int array list
(** [factorizations p ndims] enumerates all ordered factorizations of [p]
    into [ndims] positive factors, e.g. [factorizations 4 2] =
    [[|1;4|]; [|2;2|]; [|4;1|]]. *)

val search : grid:int array -> nprocs:int -> depth:int array -> int array
(** The partition shape minimizing [comm_points_per_rank], ties broken by
    better load balance then lexicographic order — the automatic choice the
    pre-compiler makes when the user does not fix a partition.
    @raise Invalid_argument when no shape of [nprocs] ranks fits the
    grid. *)

val shape_to_string : int array -> string
(** "4 x 1 x 1", the paper's table style, for partition shapes and grid
    extents alike. *)
