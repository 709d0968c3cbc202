(** Abstract syntax of the Fortran-77 subset consumed by the pre-compiler,
    extended with the SPMD constructs the code generator inserts
    (communication statements and loop schedules). *)

type dtype = Integer | Real | Double | Logical
[@@deriving show { with_path = false }, eq]

type unop = Neg | Lnot [@@deriving show { with_path = false }, eq]

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Pow
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or
[@@deriving show { with_path = false }, eq]

type expr =
  | Const_int of int
  | Const_real of float
  | Const_bool of bool
  | Const_str of string
  | Var of string
  | Ref of string * expr list
      (** array element or intrinsic/function call — disambiguated against
          declarations during analysis/interpretation *)
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Local_lo of int * expr
      (** SPMD: [max lo_expr (block low bound of grid dim d)] *)
  | Local_hi of int * expr
      (** SPMD: [min hi_expr (block high bound of grid dim d)] *)
[@@deriving show { with_path = false }, eq]

(** Direction of a halo transfer along one grid dimension. *)
type direction = Dplus | Dminus [@@deriving show { with_path = false }, eq]

(** One halo transfer inserted at a combined synchronization point: send the
    owned boundary plane(s) of [xfer_array] along grid dimension [xfer_dim]
    towards [xfer_dir], to [xfer_depth] planes deep; symmetrically receive
    into the ghost region on the opposite side. *)
type transfer = {
  xfer_array : string;
  xfer_dim : int;  (** grid (status) dimension index, 0-based *)
  xfer_dir : direction;
  xfer_depth : int;
}
[@@deriving show { with_path = false }, eq]

type comm =
  | Exchange of transfer list
      (** halo exchange with every neighbor concerned, aggregated as one
          combined synchronization point *)
  | Allreduce_max of string  (** global max of a scalar variable *)
  | Allreduce_min of string
  | Allreduce_sum of string
  | Broadcast of string list  (** root-0 broadcast of scalar variables *)
  | Allgather of string list
      (** every rank receives every owner's region of the listed arrays:
          inserted before a replicated (Serial-strategy) field loop that
          reads distributed data — the conservative fallback for loops the
          mirror-image decomposition cannot legally pipeline *)
  | Barrier
[@@deriving show { with_path = false }, eq]

(** How a DO loop is executed in the generated SPMD program. *)
type sched =
  | Sched_seq  (** replicated sequential execution on every rank *)
  | Sched_block of int
      (** bounds restricted to the rank's block in grid dimension [d] *)
  | Sched_pipeline of { dim : int; dir : direction }
      (** mirror-image / wavefront pipelining: ranks execute their block of
          grid dimension [dim] in pipeline order along [dir] *)
[@@deriving show { with_path = false }, eq]

type stmt = { s_id : int; s_label : int option; s_line : int; s_kind : kind }

and kind =
  | Assign of expr * expr  (** lhs (Var or Ref) = rhs *)
  | If of (expr * block) list * block option
      (** if/else-if chain with optional else *)
  | Do of do_loop
  | Goto of int
  | Continue
  | Call of string * expr list
  | Return
  | Stop
  | Read of expr list  (** simplified list-directed READ *)
  | Write of expr list  (** simplified list-directed WRITE/PRINT *)
  | Comm of comm  (** inserted by the code generator *)
  | Pipeline_recv of { dim : int; dir : direction; arrays : (string * int) list }
      (** inserted before a pipelined sweep: wait for upstream new values;
          (array, depth) pairs *)
  | Pipeline_send of { dim : int; dir : direction; arrays : (string * int) list }
      (** inserted after a pipelined sweep: forward new boundary downstream *)

and do_loop = {
  do_var : string;
  do_lo : expr;
  do_hi : expr;
  do_step : expr option;
  do_body : block;
  do_sched : sched;
  do_fission : fission_tag option;
      (** provenance when the nest is a fragment emitted by the
          loop-fission pass; [None] on source nests *)
}

and fission_tag = {
  fi_frag : int;  (** 1-based fragment index within the source nest *)
  fi_nfrags : int;  (** total fragments the source nest split into *)
}

and block = stmt list [@@deriving show { with_path = false }]

type decl = {
  d_name : string;
  d_type : dtype;
  d_dims : (expr * expr) list;  (** (lower, upper) bound per dimension *)
}
[@@deriving show { with_path = false }]

type unit_kind = Main | Subroutine of string list
[@@deriving show { with_path = false }]

type program_unit = {
  u_name : string;
  u_kind : unit_kind;
  u_line : int;  (** line of its PROGRAM or SUBROUTINE statement *)
  u_decls : decl list;
  u_consts : (string * expr) list;  (** PARAMETER constants, in order *)
  u_commons : (string * string list) list;  (** COMMON /name/ vars *)
  u_data : (string * expr list) list;  (** DATA initializations *)
  u_body : block;
}
[@@deriving show { with_path = false }]

type program = {
  p_units : program_unit list;
  p_directives : Directive.t list;
}
[@@deriving show { with_path = false }]

(* ------------------------------------------------------------------ *)
(* Constructors and traversals                                         *)
(* ------------------------------------------------------------------ *)

(* atomic so concurrent parses (one per sweep-scheduler worker domain)
   still mint unique, per-program strictly increasing ids *)
let stmt_counter = Atomic.make 0

let mk_stmt ?label ?(line = 0) kind =
  let id = 1 + Atomic.fetch_and_add stmt_counter 1 in
  { s_id = id; s_label = label; s_line = line; s_kind = kind }

(** [fold_stmts f acc block] folds [f] over every statement in pre-order,
    descending into loop bodies and branches. *)
let rec fold_stmts f acc block =
  List.fold_left
    (fun acc st ->
      let acc = f acc st in
      match st.s_kind with
      | Do d -> fold_stmts f acc d.do_body
      | If (branches, els) ->
          let acc =
            List.fold_left (fun acc (_, b) -> fold_stmts f acc b) acc branches
          in
          Option.fold ~none:acc ~some:(fold_stmts f acc) els
      | Assign _ | Goto _ | Continue | Call _ | Return | Stop | Read _
      | Write _ | Comm _ | Pipeline_recv _ | Pipeline_send _ ->
          acc)
    acc block

let iter_stmts f block = fold_stmts (fun () st -> f st) () block

(** [fold_exprs f acc e] folds over [e] and all sub-expressions. *)
let rec fold_exprs f acc e =
  let acc = f acc e in
  match e with
  | Const_int _ | Const_real _ | Const_bool _ | Const_str _ | Var _ -> acc
  | Ref (_, args) -> List.fold_left (fold_exprs f) acc args
  | Unop (_, a) -> fold_exprs f acc a
  | Binop (_, a, b) -> fold_exprs f (fold_exprs f acc a) b
  | Local_lo (_, a) | Local_hi (_, a) -> fold_exprs f acc a

(** Expressions appearing directly in a statement (not descending into
    nested statements). *)
let stmt_exprs st =
  match st.s_kind with
  | Assign (lhs, rhs) -> [ lhs; rhs ]
  | If (branches, _) -> List.map fst branches
  | Do d -> (d.do_lo :: d.do_hi :: Option.to_list d.do_step)
  | Call (_, args) -> args
  | Read es | Write es -> es
  | Goto _ | Continue | Return | Stop | Comm _ | Pipeline_recv _
  | Pipeline_send _ ->
      []

(** Map over every expression of a block in place-preserving style,
    rebuilding the block. *)
let rec map_block fe block = List.map (map_stmt fe) block

and map_stmt fe st =
  let kind =
    match st.s_kind with
    | Assign (l, r) -> Assign (fe l, fe r)
    | If (branches, els) ->
        If
          ( List.map (fun (c, b) -> (fe c, map_block fe b)) branches,
            Option.map (map_block fe) els )
    | Do d ->
        Do
          {
            d with
            do_lo = fe d.do_lo;
            do_hi = fe d.do_hi;
            do_step = Option.map fe d.do_step;
            do_body = map_block fe d.do_body;
          }
    | Call (name, args) -> Call (name, List.map fe args)
    | Read es -> Read (List.map fe es)
    | Write es -> Write (List.map fe es)
    | (Goto _ | Continue | Return | Stop | Comm _ | Pipeline_recv _
      | Pipeline_send _) as k ->
        k
  in
  { st with s_kind = kind }

let find_unit program name =
  List.find_opt
    (fun u -> String.lowercase_ascii u.u_name = String.lowercase_ascii name)
    program.p_units

let main_unit program =
  match List.find_opt (fun u -> u.u_kind = Main) program.p_units with
  | Some u -> u
  | None -> invalid_arg "Ast.main_unit: program has no main unit"

(** Names of intrinsic functions recognized by the interpreter; a [Ref] to
    one of these is a call, never an array access. *)
let intrinsics =
  [
    "abs"; "max"; "min"; "sqrt"; "exp"; "log"; "sin"; "cos"; "tan"; "atan";
    "mod"; "float"; "real"; "int"; "dble"; "sign"; "amax1"; "amin1"; "max0";
    "min0";
  ]

(* case-insensitive without copying [name] *)
let is_intrinsic =
  (* [name] equals the lower-case [s] ignoring case, from index [i] on *)
  let rec same_lower name s i =
    i = String.length s
    || Char.lowercase_ascii (String.unsafe_get name i) = String.unsafe_get s i
       && same_lower name s (i + 1)
  in
  let rec mem name = function
    | [] -> false
    | s :: rest ->
        (String.length s = String.length name && same_lower name s 0)
        || mem name rest
  in
  fun name -> mem name intrinsics
