(** ASCII table rendering for the benchmark harness — prints rows in the same
    layout as the paper's tables. *)

type t

val create : title:string -> headers:string list -> t
val add_row : t -> string list -> unit
(** @raise Invalid_argument when the row width differs from the header. *)

val render : t -> string

(** Cell formatting helpers. *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_pct : float -> string
(** [cell_pct 0.56] is ["56%"]. *)
