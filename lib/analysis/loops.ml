open Autocfd_fortran

type loop = {
  lp_id : int;
  lp_var : string;
  lp_line : int;
  lp_depth : int;
  lp_parent : int option;
  lp_children : int list;
  lp_enter : int;
  lp_exit : int;
  lp_stmt : Ast.stmt;
}

type t = {
  unit_ : Ast.program_unit;
  table : (int, loop) Hashtbl.t;
  order : int list;
  clocks : (int, int * int) Hashtbl.t;
  parents : (int, int list) Hashtbl.t;  (* stmt id -> enclosing loop ids *)
}

let build (u : Ast.program_unit) =
  let table = Hashtbl.create 64 in
  let clocks = Hashtbl.create 256 in
  let parents = Hashtbl.create 256 in
  let order = ref [] in
  let tick =
    let counter = ref 0 in
    fun () ->
      incr counter;
      !counter
  in
  (* [stack] is the chain of enclosing loop ids, innermost first; [kids]
     collects the direct inner loops of the innermost one, newest first
     (this also catches loops hidden inside IF branches of the body) *)
  let rec walk_block stack kids depth block =
    List.iter (walk_stmt stack kids depth) block
  and walk_stmt stack kids depth st =
    let enter = tick () in
    Hashtbl.replace parents st.Ast.s_id stack;
    (match st.Ast.s_kind with
    | Ast.Do d ->
        let children = ref [] in
        walk_block (st.Ast.s_id :: stack) children (depth + 1) d.Ast.do_body;
        let exit = tick () in
        Hashtbl.replace clocks st.Ast.s_id (enter, exit);
        order := st.Ast.s_id :: !order;
        kids := st.Ast.s_id :: !kids;
        Hashtbl.replace table st.Ast.s_id
          {
            lp_id = st.Ast.s_id;
            lp_var = d.Ast.do_var;
            lp_line = st.Ast.s_line;
            lp_depth = depth;
            lp_parent = (match stack with [] -> None | p :: _ -> Some p);
            lp_children = List.rev !children;
            lp_enter = enter;
            lp_exit = exit;
            lp_stmt = st;
          }
    | Ast.If (branches, els) ->
        List.iter (fun (_, b) -> walk_block stack kids depth b) branches;
        Option.iter (walk_block stack kids depth) els;
        let exit = tick () in
        Hashtbl.replace clocks st.Ast.s_id (enter, exit)
    | _ ->
        let exit = tick () in
        Hashtbl.replace clocks st.Ast.s_id (enter, exit))
  in
  walk_block [] (ref []) 0 u.Ast.u_body;
  { unit_ = u; table; order = List.rev !order; clocks; parents }

let unit_of t = t.unit_
let loops t = List.map (Hashtbl.find t.table) t.order
let loop t id = Hashtbl.find t.table id
let find_loop t id = Hashtbl.find_opt t.table id
let clock t id = Hashtbl.find t.clocks id

let enclosing_loops t id =
  match Hashtbl.find_opt t.parents id with
  | None -> []
  | Some ids -> List.map (loop t) ids

let is_inner t ~inner ~outer =
  let i = loop t inner and o = loop t outer in
  o.lp_enter < i.lp_enter && i.lp_exit < o.lp_exit

let is_direct_inner t ~inner ~outer =
  is_inner t ~inner ~outer && (loop t inner).lp_parent = Some outer

let adjacent t a b =
  a <> b && (loop t a).lp_parent = (loop t b).lp_parent

let is_simple t id =
  (* no two descendant loops of [id] are adjacent: every loop nested in
     [id] has at most one direct inner loop, and [id] itself has at most
     one *)
  let rec chain_ok lid =
    match (loop t lid).lp_children with
    | [] -> true
    | [ c ] -> chain_ok c
    | _ -> false
  in
  chain_ok id

let top_level t =
  List.filter (fun l -> l.lp_parent = None) (loops t)
