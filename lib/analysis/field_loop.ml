open Autocfd_fortran

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
  fs_has_call : bool;
  fs_irregular : bool;
  fs_serial : bool;
  fs_hazard_dims : int list;
      (** dims with fixed-plane chains (see [fixed_hazard_dims]) *)
}

let index_kind_of_expr env ~loop_vars (e : Ast.expr) =
  match e with
  | Ast.Var x when List.mem x loop_vars -> Affine (x, 0)
  | Ast.Binop (Ast.Add, Ast.Var x, off) when List.mem x loop_vars -> (
      match Env.eval_int env off with
      | Some k -> Affine (x, k)
      | None -> Opaque)
  | Ast.Binop (Ast.Add, off, Ast.Var x) when List.mem x loop_vars -> (
      match Env.eval_int env off with
      | Some k -> Affine (x, k)
      | None -> Opaque)
  | Ast.Binop (Ast.Sub, Ast.Var x, off) when List.mem x loop_vars -> (
      match Env.eval_int env off with
      | Some k -> Affine (x, -k)
      | None -> Opaque)
  | e -> (
      match Env.eval_int env e with
      | Some k -> Fixed k
      | None -> Opaque)

(* ------------------------------------------------------------------ *)
(* Raw access collection within one loop nest                          *)
(* ------------------------------------------------------------------ *)

type raw_access = {
  ra_array : string;
  ra_write : bool;
  ra_opaque_all : bool;  (** whole-array access (bare name) *)
  ra_indices : (int * index_kind) list;  (** grid dim -> kind *)
  ra_stmt : int;  (** statement sequence number within the nest *)
}

type collect_ctx = {
  gi : Grid_info.t;
  env : Env.t;
  loop_vars : string list;
  mutable accesses : raw_access list;
  mutable has_call : bool;
  mutable reductions : reduction list;
  mutable stmt_seq : int;
}

let record ctx ~write name args =
  match Grid_info.find_status ctx.gi name with
  | None -> ()
  | Some sa ->
      let indices =
        List.filteri (fun k _ -> k < sa.Grid_info.sa_rank) args
        |> List.mapi (fun k idx ->
               match sa.Grid_info.sa_dims.(k) with
               | None -> None
               | Some g ->
                   Some
                     (g, index_kind_of_expr ctx.env ~loop_vars:ctx.loop_vars idx))
        |> List.filter_map Fun.id
      in
      ctx.accesses <-
        { ra_array = name; ra_write = write; ra_opaque_all = false;
          ra_indices = indices; ra_stmt = ctx.stmt_seq }
        :: ctx.accesses

let record_whole ctx ~write name =
  if Grid_info.is_status ctx.gi name then
    ctx.accesses <-
      { ra_array = name; ra_write = write; ra_opaque_all = true;
        ra_indices = []; ra_stmt = ctx.stmt_seq }
      :: ctx.accesses

(* reads inside an arbitrary expression *)
let collect_expr_reads ctx e =
  Ast.fold_exprs
    (fun () e ->
      match e with
      | Ast.Ref (name, args) when not (Ast.is_intrinsic name) ->
          record ctx ~write:false name args
      | _ -> ())
    () e

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

let rec collect_block ctx block = List.iter (collect_stmt ctx) block

and collect_stmt ctx st =
  ctx.stmt_seq <- ctx.stmt_seq + 1;
  match st.Ast.s_kind with
  | Ast.Assign (lhs, rhs) ->
      (match lhs with
      | Ast.Ref (name, args) ->
          record ctx ~write:true name args;
          (* index expressions of the lhs are reads *)
          List.iter (collect_expr_reads ctx) args
      | Ast.Var name when Grid_info.is_status ctx.gi name ->
          record_whole ctx ~write:true name
      | _ -> ());
      collect_expr_reads ctx rhs;
      (match recognize_reduction lhs rhs with
      | Some r when not (List.mem r ctx.reductions) ->
          ctx.reductions <- r :: ctx.reductions
      | _ -> ())
  | Ast.If (branches, els) ->
      List.iter
        (fun (c, b) ->
          collect_expr_reads ctx c;
          collect_block ctx b)
        branches;
      Option.iter (collect_block ctx) els
  | Ast.Do d ->
      collect_expr_reads ctx d.Ast.do_lo;
      collect_expr_reads ctx d.Ast.do_hi;
      Option.iter (collect_expr_reads ctx) d.Ast.do_step;
      collect_block ctx d.Ast.do_body
  | Ast.Call (_, args) ->
      ctx.has_call <- true;
      List.iter
        (fun a ->
          match a with
          | Ast.Var name when Grid_info.is_status ctx.gi name ->
              (* whole array passed to a subroutine: assume read+write *)
              record_whole ctx ~write:false name;
              record_whole ctx ~write:true name
          | a -> collect_expr_reads ctx a)
        args
  | Ast.Read items ->
      List.iter
        (fun it ->
          match it with
          | Ast.Var name when Grid_info.is_status ctx.gi name ->
              record_whole ctx ~write:true name
          | Ast.Ref (name, args) when not (Ast.is_intrinsic name) ->
              record ctx ~write:true name args;
              List.iter (collect_expr_reads ctx) args
          | _ -> ())
        items
  | Ast.Write items -> List.iter (collect_expr_reads ctx) items
  | Ast.Goto _ | Ast.Continue | Ast.Return | Ast.Stop | Ast.Comm _
  | Ast.Pipeline_recv _ | Ast.Pipeline_send _ ->
      ()

(* ------------------------------------------------------------------ *)
(* Summarizing a nest                                                  *)
(* ------------------------------------------------------------------ *)

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
  let tbl = Hashtbl.create 8 in
  let get name =
    match Hashtbl.find_opt tbl name with
    | Some u -> u
    | None -> empty_use ndims
  in
  let all_dims = List.init ndims Fun.id in
  List.iter
    (fun ra ->
      let u = get ra.ra_array in
      let u =
        if ra.ra_write then { u with au_assigned = true }
        else { u with au_referenced = true }
      in
      let u =
        if ra.ra_opaque_all then
          if ra.ra_write then
            { u with au_opaque_write_dims = all_dims }
          else { u with au_opaque_read_dims = all_dims }
        else
          List.fold_left
            (fun u (g, kind) ->
              match (kind, ra.ra_write) with
              | Affine (_, off), false ->
                  u.au_read_offsets.(g) <-
                    sorted_uniq (off :: u.au_read_offsets.(g));
                  u
              | Affine (_, off), true ->
                  u.au_write_offsets.(g) <-
                    sorted_uniq (off :: u.au_write_offsets.(g));
                  u
              | Fixed p, false ->
                  { u with au_fixed_reads =
                             sorted_uniq ((g, p) :: u.au_fixed_reads) }
              | Fixed p, true ->
                  { u with au_fixed_writes =
                             sorted_uniq ((g, p) :: u.au_fixed_writes) }
              | Opaque, false ->
                  { u with au_opaque_read_dims =
                             sorted_uniq (g :: u.au_opaque_read_dims) }
              | Opaque, true ->
                  { u with au_opaque_write_dims =
                             sorted_uniq (g :: u.au_opaque_write_dims) })
            u ra.ra_indices
      in
      Hashtbl.replace tbl ra.ra_array u)
    accesses;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* Grid dimensions where the loop chains values across fixed planes or
   mixes an affine sweep with fixed-plane reads — distributing such a loop
   along that dimension would read values a remote rank just produced (or
   mid-sweep values), so the code generator must fall back to Serial when
   the dimension is cut. *)
let fixed_hazard_dims accesses =
  (* all fixed planes written anywhere in the nest, per dim *)
  let written_fixed =
    List.concat_map
      (fun ra ->
        if not ra.ra_write then []
        else
          List.filter_map
            (fun (g, k) -> match k with Fixed p -> Some (g, p) | _ -> None)
            ra.ra_indices)
      accesses
  in
  let hazards = ref [] in
  let by_stmt = Hashtbl.create 16 in
  List.iter
    (fun ra ->
      let cur =
        Option.value ~default:[] (Hashtbl.find_opt by_stmt ra.ra_stmt)
      in
      Hashtbl.replace by_stmt ra.ra_stmt (ra :: cur))
    accesses;
  Hashtbl.iter
    (fun _ ras ->
      let writes = List.filter (fun ra -> ra.ra_write) ras in
      let reads = List.filter (fun ra -> not ra.ra_write) ras in
      List.iter
        (fun w ->
          List.iter
            (fun (g, k) ->
              match k with
              | Fixed p2 ->
                  (* writing plane p2 while reading a different plane p of
                     dim g that this loop also writes *)
                  List.iter
                    (fun r ->
                      List.iter
                        (fun (g', k') ->
                          match k' with
                          | Fixed p
                            when g' = g && p <> p2
                                 && List.mem (g, p) written_fixed ->
                              hazards := g :: !hazards
                          | _ -> ())
                        r.ra_indices)
                    reads
              | Affine _ ->
                  (* an affine sweep of dim g that reads any fixed plane of
                     g may read mid-sweep or distant values *)
                  List.iter
                    (fun r ->
                      List.iter
                        (fun (g', k') ->
                          match k' with
                          | Fixed _ when g' = g -> hazards := g :: !hazards
                          | _ -> ())
                        r.ra_indices)
                    reads
              | _ -> ())
            w.ra_indices)
        writes)
    by_stmt;
  List.sort_uniq compare !hazards

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

let analyze_unit gi (u : Ast.program_unit) =
  let env = Env.of_unit u in
  let ltree = Loops.build u in
  let collect (l : Loops.loop) =
    let head = l.Loops.lp_stmt in
    let body =
      match head.Ast.s_kind with
      | Ast.Do d -> d.Ast.do_body
      | _ -> assert false
    in
    let ctx =
      { gi; env; loop_vars = nest_loop_vars head; accesses = [];
        has_call = false; reductions = []; stmt_seq = 0 }
    in
    collect_block ctx body;
    ctx
  in
  let summarize (l : Loops.loop) ctx (var_dims, conflict) =
    let uses = summarize_uses gi ctx.accesses in
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
        (List.rev ctx.accesses)
    in
    {
      fs_loop = l;
      fs_unit = u.Ast.u_name;
      fs_var_dims = var_dims;
      fs_swept_dims = swept;
      fs_uses = uses;
      fs_read_refs = read_refs;
      fs_reductions = List.rev ctx.reductions;
      fs_has_call = ctx.has_call;
      fs_irregular = conflict || opaque_status_use;
      fs_serial = false;
      fs_hazard_dims = fixed_hazard_dims ctx.accesses;
    }
  in
  (* a loop sweeps the field if its own variable maps to a grid
     dimension; heads are sweep loops with no sweeping ancestor, found
     top-down: a sweeping loop is a head, and only the direct inner loops
     of one that does not sweep are examined *)
  let rec heads acc (l : Loops.loop) =
    let ctx = collect l in
    let mapping =
      try (var_dim_mapping ctx.accesses, false) with Conflict -> ([], true)
    in
    if List.mem_assoc l.Loops.lp_var (fst mapping) then
      summarize l ctx mapping :: acc
    else
      List.fold_left
        (fun acc id -> heads acc (Loops.loop ltree id))
        acc l.Loops.lp_children
  in
  (* the walk is pre-order with children in program order, so [heads]
     collects the heads in program order, newest first *)
  let heads_in_order =
    List.rev (List.fold_left heads [] (Loops.top_level ltree))
  in
  let serial_lines = gi.Grid_info.serial_lines in
  List.map
    (fun s ->
      let line = s.fs_loop.Loops.lp_line in
      let serial =
        List.exists
          (fun dl ->
            dl < line
            && not
                 (List.exists
                    (fun s' ->
                      let l' = s'.fs_loop.Loops.lp_line in
                      l' > dl && l' < line)
                    heads_in_order))
          serial_lines
      in
      { s with fs_serial = serial })
    heads_in_order
