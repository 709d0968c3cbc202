open Autocfd_fortran
module SS = Access.SS

type index_kind = Affine of string * int | Fixed of int | Opaque
[@@deriving show, eq]

type ltype = A | R | C | O [@@deriving show, eq]

type array_use = {
  au_assigned : bool;
  au_referenced : bool;
  au_read_offsets : int list array;
  au_write_offsets : int list array;
  au_fixed_reads : (int * int) list;
  au_fixed_writes : (int * int) list;
  au_opaque_read_dims : int list;
  au_opaque_write_dims : int list;
}

type reduction = { red_var : string; red_op : [ `Max | `Min | `Sum ] }
[@@deriving show, eq]

type summary = {
  fs_loop : Loops.loop;
  fs_unit : string;
  fs_var_dims : (string * int) list;
  fs_swept_dims : int list;
  fs_uses : (string * array_use) list;
  fs_read_refs : (string * (int * index_kind) list) list;
      (** every status-array read reference with its per-grid-dimension
          index kinds — the joint offset vectors the mirror-image
          decomposition needs (a per-dimension summary would lose
          diagonal dependences like [u(i+1, j-1)]) *)
  fs_reductions : reduction list;
  fs_irregular : bool;
  fs_serial : bool;
  fs_hazard_dims : int list;
      (** see [fixed_hazard_dims] and the live-out rule of [analyze_unit] *)
}

(* A subscript's kind in one status dimension: a view of its affine form
   over the nest's loop variables [vars] *)
let index_kind vars (d : string Access.dim) =
  match d with
  | Access.Aff { coeffs; const; syms = [] } -> (
      let lv = ref (-1) in
      Array.iteri
        (fun l c -> if c <> 0 then lv := if c = 1 && !lv = -1 then l else -2)
        coeffs;
      match !lv with -1 -> Fixed const | -2 -> Opaque | l -> Affine (vars.(l), const))
  | Access.Aff _ | Access.Opaque -> Opaque

(* ------------------------------------------------------------------ *)
(* Status-array accesses of one loop nest                              *)
(* ------------------------------------------------------------------ *)

type raw_access = {
  ra_array : string;
  ra_write : bool;
  ra_opaque_all : bool;  (** whole-array access (bare name) *)
  ra_indices : (int * index_kind) list;  (** grid dim -> kind *)
  ra_stmt : int;  (** statement within the nest *)
}

let raw_access gi vars (r : string Access.aref) =
  let indices =
    match (Grid_info.find_status gi r.Access.name, r.Access.dims) with
    | Some sa, Some dims ->
        List.filter_map
          (fun k ->
            Option.map (fun g -> (g, index_kind vars dims.(k))) sa.Grid_info.sa_dims.(k))
          (List.init (min sa.Grid_info.sa_rank (Array.length dims)) Fun.id)
    | _ -> []
  in
  { ra_array = r.Access.name; ra_write = r.Access.write;
    ra_opaque_all = r.Access.dims = None; ra_indices = indices;
    ra_stmt = r.Access.stmt }

let recognize_reduction (lhs : Ast.expr) (rhs : Ast.expr) =
  match lhs with
  | Ast.Var s ->
      let is_s = function Ast.Var s' -> s' = s | _ -> false in
      (match rhs with
      | Ast.Ref (("max" | "amax1"), [ a; b ]) when is_s a || is_s b ->
          Some { red_var = s; red_op = `Max }
      | Ast.Ref (("min" | "amin1"), [ a; b ]) when is_s a || is_s b ->
          Some { red_var = s; red_op = `Min }
      | Ast.Binop (Ast.Add, a, b) when is_s a || is_s b ->
          Some { red_var = s; red_op = `Sum }
      | _ -> None)
  | _ -> None

let nest_loop_vars (head : Ast.stmt) =
  let vars = ref [] in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s_kind with
      | Ast.Do d -> if not (List.mem d.Ast.do_var !vars) then
          vars := d.Ast.do_var :: !vars
      | _ -> ())
    [ head ];
  List.rev !vars

(* One walk of the nest's body: its status-array accesses, its access
   summary over the nest's loop variables, and its reductions *)
let collect gi env (head : Ast.stmt) =
  let body =
    match head.Ast.s_kind with Ast.Do d -> d.Ast.do_body | _ -> assert false
  in
  let vars = Array.of_list (nest_loop_vars head) in
  let lvl = Hashtbl.create 16 in
  Array.iteri (fun l v -> Hashtbl.replace lvl v l) vars;
  let names =
    Access.names ~depth:(Array.length vars) ~fold:(Env.eval_int env)
      ~is_array:(Grid_info.is_status gi) ~leaf:(fun x ->
        match Hashtbl.find_opt lvl x with
        | Some l -> Access.Level l
        | None -> (
            match Env.lookup env x with
            | Some c -> Access.Int c
            | None -> Access.Other))
  in
  let reductions = ref [] in
  let visit (st : Ast.stmt) =
    (match st.Ast.s_kind with
    | Ast.Assign (lhs, rhs) -> (
        match recognize_reduction lhs rhs with
        | Some r when not (List.mem r !reductions) -> reductions := r :: !reductions
        | _ -> ())
    | _ -> ());
    true
  in
  let acc = Access.summarize ~visit names body in
  (List.map (raw_access gi vars) acc.Access.refs, acc, List.rev !reductions)

(* ------------------------------------------------------------------ *)
(* Summarizing a nest                                                  *)
(* ------------------------------------------------------------------ *)

let sorted_uniq l = List.sort_uniq compare l

exception Conflict

let var_dim_mapping accesses =
  (* loop variable -> grid dimension; raise Conflict on inconsistency *)
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ra ->
      List.iter
        (fun (g, kind) ->
          match kind with
          | Affine (x, _) -> (
              match Hashtbl.find_opt tbl x with
              | None -> Hashtbl.replace tbl x g
              | Some g' when g' = g -> ()
              | Some _ -> raise Conflict)
          | Fixed _ | Opaque -> ())
        ra.ra_indices)
    accesses;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

let empty_use ndims =
  {
    au_assigned = false;
    au_referenced = false;
    au_read_offsets = Array.make ndims [];
    au_write_offsets = Array.make ndims [];
    au_fixed_reads = [];
    au_fixed_writes = [];
    au_opaque_read_dims = [];
    au_opaque_write_dims = [];
  }

let summarize_uses gi accesses =
  let ndims = Grid_info.ndims gi in
  let all_dims = List.init ndims Fun.id in
  let add x l = sorted_uniq (x :: l) in
  List.fold_left
    (fun uses ra ->
      let w = ra.ra_write in
      let u =
        Option.value ~default:(empty_use ndims) (List.assoc_opt ra.ra_array uses)
      in
      let u = if w then { u with au_assigned = true } else { u with au_referenced = true } in
      let u =
        if ra.ra_opaque_all then
          if w then { u with au_opaque_write_dims = all_dims }
          else { u with au_opaque_read_dims = all_dims }
        else
          List.fold_left
            (fun u (g, kind) ->
              match kind with
              | Affine (_, off) ->
                  let offs = if w then u.au_write_offsets else u.au_read_offsets in
                  offs.(g) <- add off offs.(g);
                  u
              | Fixed p when w -> { u with au_fixed_writes = add (g, p) u.au_fixed_writes }
              | Fixed p -> { u with au_fixed_reads = add (g, p) u.au_fixed_reads }
              | Opaque when w ->
                  { u with au_opaque_write_dims = add g u.au_opaque_write_dims }
              | Opaque -> { u with au_opaque_read_dims = add g u.au_opaque_read_dims })
            u ra.ra_indices
      in
      (ra.ra_array, u) :: List.remove_assoc ra.ra_array uses)
    [] accesses
  |> List.sort compare

(* Grid dimensions the nest cannot be cut along: distributing it along
   such a dimension would read values a remote rank just produced,
   mid-sweep values, or a plane outside the reader's block, or keep a
   rank's last iteration instead of the global one.  Dimension g is a
   hazard when
   - a statement writes a fixed plane of g and reads another plane of g
     that the nest also writes as a fixed plane (a chain of planes);
   - a write moves with g's loop variable and some read anywhere in the
     nest (so also one that reaches the write through a scalar
     temporary) is a fixed plane of g;
   - a write is a fixed plane of g and the nest sweeps g, so the last
     iteration's value wins. *)
let fixed_hazard_dims ~ndims ~swept accesses =
  let writes, reads = List.partition (fun ra -> ra.ra_write) accesses in
  let planes g ra =
    List.filter_map
      (function g', Fixed p when g' = g -> Some p | _ -> None)
      ra.ra_indices
  in
  let chain g =
    let written = List.concat_map (planes g) writes in
    List.exists
      (fun w ->
        List.exists
          (fun p2 ->
            List.exists
              (fun r ->
                r.ra_stmt = w.ra_stmt
                && List.exists (fun p -> p <> p2 && List.mem p written) (planes g r))
              reads)
          (planes g w))
      writes
  in
  let moves g =
    List.exists
      (fun ra -> List.exists (function g', Affine _ -> g' = g | _ -> false) ra.ra_indices)
      writes
  in
  List.filter
    (fun g ->
      chain g
      || (moves g && List.exists (fun r -> planes g r <> []) reads)
      || (List.mem g swept && List.exists (fun w -> planes g w <> []) writes))
    (List.init ndims Fun.id)

let ltype s array =
  match List.assoc_opt array s.fs_uses with
  | None -> O
  | Some u -> (
      match (u.au_assigned, u.au_referenced) with
      | true, true -> C
      | true, false -> A
      | false, true -> R
      | false, false -> O)

let self_dependent s array =
  match List.assoc_opt array s.fs_uses with
  | None -> false
  | Some u ->
      u.au_assigned && u.au_referenced
      && (Array.exists (List.exists (fun off -> off <> 0)) u.au_read_offsets
         || u.au_opaque_read_dims <> [])

(* does [x] appear in a subscript of a status array within [st]? *)
let subscripts_mention gi x st =
  let mentions =
    Ast.fold_exprs (fun m e -> m || match e with Ast.Var y -> y = x | _ -> false) false
  in
  Ast.fold_stmts
    (fun m st ->
      m
      || List.exists
           (Ast.fold_exprs
              (fun m e ->
                m
                || match e with
                   | Ast.Ref (name, args) when Grid_info.is_status gi name ->
                       List.exists mentions args
                   | _ -> false)
              false)
           (Ast.stmt_exprs st))
    false [ st ]

let analyze_unit gi (u : Ast.program_unit) =
  let env = Env.of_unit u in
  let ltree = Loops.build u in
  let summarize (l : Loops.loop) (accesses, acc, reductions) (var_dims, conflict) =
    let uses = summarize_uses gi accesses in
    let opaque_status_use =
      List.exists
        (fun (_, au) ->
          au.au_opaque_read_dims <> [] || au.au_opaque_write_dims <> [])
        uses
    in
    let swept = sorted_uniq (List.map snd var_dims) in
    let read_refs =
      List.filter_map
        (fun ra ->
          if ra.ra_write || ra.ra_opaque_all then None
          else Some (ra.ra_array, ra.ra_indices))
        accesses
    in
    ( {
        fs_loop = l;
        fs_unit = u.Ast.u_name;
        fs_var_dims = var_dims;
        fs_swept_dims = swept;
        fs_uses = uses;
        fs_read_refs = read_refs;
        fs_reductions = reductions;
        fs_irregular = conflict || opaque_status_use;
        fs_serial = false;
        fs_hazard_dims =
          fixed_hazard_dims ~ndims:(Grid_info.ndims gi) ~swept accesses;
      },
      acc )
  in
  (* a loop sweeps the field if its own variable maps to a grid
     dimension; heads are sweep loops with no sweeping ancestor, found
     top-down: a sweeping loop is a head, and only the direct inner loops
     of one that does not sweep are examined.  A loop whose variables
     map inconsistently, with no head beneath it, is an irregular head
     itself, so it runs replicated after an allgather. *)
  let rec heads acc (l : Loops.loop) =
    let nest =
      lazy
        (let ((accesses, _, _) as c) = collect gi env l.Loops.lp_stmt in
         (c, try (var_dim_mapping accesses, false) with Conflict -> ([], true)))
    in
    let head () =
      let c, mapping = Lazy.force nest in
      summarize l c mapping :: acc
    in
    (* a variable no status subscript mentions maps to no dimension *)
    if
      subscripts_mention gi l.Loops.lp_var l.Loops.lp_stmt
      && List.mem_assoc l.Loops.lp_var (fst (snd (Lazy.force nest)))
    then head ()
    else
      let below =
        List.fold_left
          (fun acc id -> heads acc (Loops.loop ltree id))
          acc l.Loops.lp_children
      in
      if below == acc && snd (snd (Lazy.force nest)) then head () else below
  in
  (* the walk is pre-order with children in program order, so [heads]
     collects the heads in program order, newest first *)
  let heads_in_order =
    List.rev (List.fold_left heads [] (Loops.top_level ltree))
  in
  (* A head that assigns a scalar (not one of its reductions) which some
     head reads before assigning it, or which code outside every head
     reads, must not be cut: each rank would keep the value of its own
     last point.  It gets every swept dimension as a hazard. *)
  let ids = Hashtbl.create 32 in
  List.iter (fun (s, _) -> Hashtbl.replace ids s.fs_loop.Loops.lp_id ()) heads_in_order;
  let outside =
    Access.summarize
      ~visit:(fun st -> not (Hashtbl.mem ids st.Ast.s_id))
      (Access.names ~depth:0 ~leaf:(fun _ -> Access.Other) ~fold:(fun _ -> None)
         ~is_array:(Grid_info.is_status gi))
      u.Ast.u_body
  in
  let live =
    List.fold_left
      (fun live (_, (a : string Access.t)) -> SS.union live a.Access.early)
      outside.Access.reads heads_in_order
  in
  let serial_lines = gi.Grid_info.serial_lines in
  List.map
    (fun (s, (a : string Access.t)) ->
      let line = s.fs_loop.Loops.lp_line in
      let serial =
        List.exists
          (fun dl ->
            dl < line
            && not
                 (List.exists
                    (fun (s', _) ->
                      let l' = s'.fs_loop.Loops.lp_line in
                      l' > dl && l' < line)
                    heads_in_order))
          serial_lines
      in
      let temps =
        List.fold_left
          (fun t r -> SS.remove r.red_var t)
          a.Access.writes s.fs_reductions
      in
      let hazards =
        if SS.disjoint temps live then s.fs_hazard_dims
        else sorted_uniq (s.fs_hazard_dims @ s.fs_swept_dims)
      in
      { s with fs_serial = serial; fs_hazard_dims = hazards })
    heads_in_order
