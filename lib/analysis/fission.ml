(* Loop fission / distribution.

   A perfect DO nest whose innermost body mixes kernel-fusable affine
   assignments with non-fusable residue (IF statements, I/O, integer
   quirks) is split into maximal independent sub-nests so the affine
   fragments reach the fused-kernel tier while only the genuine residue
   stays on the closure IR.  The pass is purely an AST transform applied
   before any analysis or engine sees the unit, so every execution
   engine runs the same fissioned program and cross-engine bit-identity
   is preserved by construction.

   Algorithm (classic loop distribution):
     1. summarize every body statement's accesses ([Access.summarize]) —
        scalars read/written, array references with per-dimension affine
        forms over the nest's loop variables, I/O;
     2. build a statement-level dependence graph: scalar conflicts and
        undecidable array conflicts merge statements (edges both ways);
        array conflicts with a provable distance vector give a directed
        edge from the lexically-earlier executed instance's statement;
     3. compute strongly connected components — statements on a
        loop-carried cycle must stay in one nest — and emit one sub-nest
        per SCC group in topological order (stable: ties broken by the
        smallest original statement index).

   Legality is conservative: any construct the summarizer cannot prove
   independent keeps its statements together, and a nest is left alone
   entirely when splitting could change semantics (GOTO/CALL/RETURN/
   STOP/communication anywhere inside, labels targeted by GOTOs, loop
   bounds reading body-written scalars, assignments to loop variables).
   Scalar temporaries are not expanded: every statement touching a
   body-written scalar lands in the same fragment.

   One caveat, shared with classical distribution: a run that stops with
   a runtime error mid-nest observes a different partial state, because
   fragments execute their full trip space in sequence instead of
   interleaved.  Error-free executions — everything the equivalence
   suites and the bundled apps exercise — are bit-identical. *)

open Autocfd_fortran
module SS = Access.SS

type split = {
  sp_line : int;  (** source line of the original nest's outer DO *)
  sp_vars : string list;  (** loop variables, outermost first *)
  sp_nfrags : int;  (** fragments emitted *)
}

(* ------------------------------------------------------------------ *)
(* Dependence test over the statements' access summaries               *)
(* ------------------------------------------------------------------ *)

type ctx = {
  c_names : string Access.names;  (* the nest as fission sees it *)
  c_lvl : (string, int) Hashtbl.t;  (* loop var -> level, outer-first *)
  c_m : int;
  c_consts : Env.t;  (* never-assigned PARAMETER constants *)
  c_arrays : (string, unit) Hashtbl.t;
  c_types : (string, Ast.dtype) Hashtbl.t;
  c_steps : int option array;  (* per level: step sign, if known *)
}

let implicit_type name =
  if name = "" then Ast.Real
  else match name.[0] with 'i' .. 'n' -> Ast.Integer | _ -> Ast.Real

let scalar_type types x =
  match Hashtbl.find_opt types x with Some t -> t | None -> implicit_type x

let cfold ctx e = Env.eval_int ctx.c_consts e

let affine ctx e = fst (Access.subscript ctx.c_names e) <> Access.Opaque

type dir = No_dep | Fwd | Bwd | Both

(* direction of the dependence between reference [a] of a lexically
   earlier statement and reference [b] of a later one.  [Fwd]: every
   conflicting pair has a's instance executing no later than b's, so
   running a's fragment first preserves order; [Bwd]: the reverse;
   [Both]: undecided (or instances in both orders).  The decision is
   lexicographic over the distance vector, outer level first. *)
let dep_dir ctx (a : string Access.aref) (b : string Access.aref) : dir =
  match
    match (a.Access.dims, b.Access.dims) with
    | Some da, Some db -> Access.distance ~steps:ctx.c_steps da db
    | None, _ | _, None -> Some (Array.make ctx.c_m None)
  with
  | None -> No_dep
  | Some d ->
      let rec decide l =
        if l >= ctx.c_m then Fwd (* D = 0: loop-independent, source is a *)
        else
          match d.(l) with
          | None -> Both
          | Some 0 -> decide (l + 1)
          | Some k -> if k > 0 then Fwd else Bwd
      in
      decide 0

let scalar_conflict (a : string Access.t) (b : string Access.t) =
  (not (SS.is_empty (SS.inter a.writes (SS.union b.reads b.writes))))
  || not (SS.is_empty (SS.inter a.reads b.writes))

(* dependence of later statement [j] (summary [b]) on earlier statement
   [i] (summary [a]), combined over every conflicting access pair *)
let stmt_dep ctx (a : string Access.t) (b : string Access.t) : dir =
  if a.opaque || b.opaque then Both
  else if scalar_conflict a b then Both
  else if a.io && b.io then Both
  else
    List.fold_left
      (fun acc (ra : string Access.aref) ->
        if acc = Both then Both
        else
          List.fold_left
            (fun acc (rb : string Access.aref) ->
              if acc = Both then Both
              else if ra.name <> rb.name || ((not ra.write) && not rb.write)
              then acc
              else
                match (acc, dep_dir ctx ra rb) with
                | acc, No_dep -> acc
                | No_dep, d -> d
                | Fwd, Fwd -> Fwd
                | Bwd, Bwd -> Bwd
                | Both, _ | _, Both | Fwd, Bwd | Bwd, Fwd -> Both)
            acc b.refs)
      No_dep a.refs

(* ------------------------------------------------------------------ *)
(* Fusability heuristic (profitability only, never legality)           *)
(* ------------------------------------------------------------------ *)

type ty = TInt | TReal | TUnknown

let rec type_of ctx (e : Ast.expr) : ty =
  match e with
  | Ast.Const_int _ -> TInt
  | Ast.Const_real _ -> TReal
  | Ast.Const_bool _ | Ast.Const_str _ -> TUnknown
  | Ast.Var x -> (
      if Hashtbl.mem ctx.c_lvl x then TInt
      else
        match scalar_type ctx.c_types x with
        | Ast.Integer -> TInt
        | Ast.Real | Ast.Double -> TReal
        | Ast.Logical -> TUnknown)
  | Ast.Ref (name, args) ->
      if Hashtbl.mem ctx.c_arrays name then TReal
      else if List.mem name [ "float"; "real"; "dble"; "sqrt"; "exp"; "log";
                              "sin"; "cos"; "tan"; "atan"; "amax1"; "amin1" ]
      then TReal
      else if List.mem name [ "int"; "max0"; "min0" ] then TInt
      else if List.mem name [ "abs"; "max"; "min"; "sign"; "mod" ] then
        List.fold_left
          (fun acc a ->
            match (acc, type_of ctx a) with
            | TInt, TInt -> TInt
            | TUnknown, _ | _, TUnknown -> TUnknown
            | _ -> TReal)
          TInt args
      else TUnknown
  | Ast.Unop (Ast.Neg, a) -> type_of ctx a
  | Ast.Unop (Ast.Lnot, _) -> TUnknown
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow), a, b) -> (
      match (type_of ctx a, type_of ctx b) with
      | TInt, TInt -> TInt
      | TUnknown, _ | _, TUnknown -> TUnknown
      | _ -> TReal)
  | Ast.Binop (_, _, _) -> TUnknown
  | Ast.Local_lo _ | Ast.Local_hi _ -> TUnknown

let rec fusable_expr ctx (e : Ast.expr) : bool =
  match e with
  | Ast.Const_int _ | Ast.Const_real _ -> true
  | Ast.Const_bool _ | Ast.Const_str _ -> false
  | Ast.Var x ->
      Hashtbl.mem ctx.c_lvl x
      || (match scalar_type ctx.c_types x with
         | Ast.Integer | Ast.Real | Ast.Double -> true
         | Ast.Logical -> false)
  | Ast.Ref (name, args) ->
      if Hashtbl.mem ctx.c_arrays name then
        List.for_all (affine ctx) args
      else
        Ast.is_intrinsic name
        && List.for_all (fusable_expr ctx) args
        && (match (name, args) with
           | "mod", _ when type_of ctx e = TInt -> false
           | _ -> true)
  | Ast.Unop (Ast.Neg, a) -> fusable_expr ctx a
  | Ast.Unop (Ast.Lnot, _) -> false
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul) as _op, a, b) ->
      fusable_expr ctx a && fusable_expr ctx b
  | Ast.Binop (Ast.Div, a, b) ->
      fusable_expr ctx a && fusable_expr ctx b
      && (type_of ctx e = TReal
         || (match cfold ctx b with Some c -> c <> 0 | None -> false))
  | Ast.Binop (Ast.Pow, a, b) ->
      fusable_expr ctx a && fusable_expr ctx b
      && (type_of ctx e = TReal
         || (match b with Ast.Const_int y -> y >= 0 | _ -> false))
  | Ast.Binop (_, _, _) -> false
  | Ast.Local_lo _ | Ast.Local_hi _ -> false

let fusable_stmt ctx (s : Ast.stmt) : bool =
  match s.Ast.s_kind with
  | Ast.Continue -> true
  | Ast.Assign (Ast.Ref (name, args), rhs) ->
      Hashtbl.mem ctx.c_arrays name
      && List.for_all (affine ctx) args
      && fusable_expr ctx rhs
  | Ast.Assign (Ast.Var x, rhs) ->
      (* the fused tier's rows have no integer registers *)
      (match scalar_type ctx.c_types x with
      | Ast.Real | Ast.Double -> true
      | Ast.Integer | Ast.Logical -> false)
      && fusable_expr ctx rhs
  | _ -> false

let writes_array ctx (s : Ast.stmt) =
  match s.Ast.s_kind with
  | Ast.Assign (Ast.Ref (name, _), _) -> Hashtbl.mem ctx.c_arrays name
  | _ -> false

(* ------------------------------------------------------------------ *)
(* SCC grouping (Tarjan) + stable topological order                    *)
(* ------------------------------------------------------------------ *)

(* returns the list of components, each a sorted list of node indices,
   topologically ordered (every edge src -> dst has src's component no
   later than dst's), ties broken by smallest member index.  Bodies are
   short, so reachability is a transitive closure: two nodes share a
   component when each reaches the other, and a component is ready once
   every other component reaching it is placed. *)
let scc_topo n (adj : int list array) : int list list =
  let reach = Array.init n (fun i -> Array.init n (fun j -> i = j)) in
  Array.iteri (fun i ws -> List.iter (fun j -> reach.(i).(j) <- true) ws) adj;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if reach.(i).(k) then
        for j = 0 to n - 1 do
          if reach.(k).(j) then reach.(i).(j) <- true
        done
    done
  done;
  let nodes = List.init n Fun.id in
  (* a component by its smallest member *)
  let rep i = List.find (fun j -> reach.(i).(j) && reach.(j).(i)) nodes in
  let reps = List.sort_uniq compare (List.map rep nodes) in
  let rec order placed = function
    | [] -> []
    | remaining ->
        let r =
          List.find
            (fun r ->
              List.for_all (fun r' -> r' = r || List.mem r' placed || not reach.(r').(r)) reps)
            remaining
        in
        List.filter (fun i -> rep i = r) nodes
        :: order (r :: placed) (List.filter (( <> ) r) remaining)
  in
  order [] reps

(* ------------------------------------------------------------------ *)
(* Nest eligibility and rebuilding                                     *)
(* ------------------------------------------------------------------ *)

let filter_continues body =
  List.filter
    (fun (s : Ast.stmt) ->
      match s.Ast.s_kind with Ast.Continue -> false | _ -> true)
    body

(* peel a perfect nest: outer-first levels plus the innermost body *)
let rec peel acc (d : Ast.do_loop) =
  let acc = d :: acc in
  match filter_continues d.Ast.do_body with
  | [ { Ast.s_kind = Ast.Do d'; _ } ] -> peel acc d'
  | body -> (List.rev acc, body)

let expr_vars e =
  Ast.fold_exprs
    (fun vs e -> match e with Ast.Var x -> SS.add x vs | _ -> vs)
    SS.empty e

let goto_targets (u : Ast.program_unit) =
  let t = ref [] in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.s_kind with Ast.Goto l -> t := l :: !t | _ -> ())
    u.Ast.u_body;
  !t

type uenv = {
  u_consts : Env.t;
  u_arrays : (string, unit) Hashtbl.t;
  u_types : (string, Ast.dtype) Hashtbl.t;
  u_goto_targets : int list;
}

let uenv_of (u : Ast.program_unit) =
  let arrays = Hashtbl.create 32 in
  let types = Hashtbl.create 64 in
  List.iter
    (fun (d : Ast.decl) ->
      if d.Ast.d_dims <> [] then Hashtbl.replace arrays d.Ast.d_name ()
      else Hashtbl.replace types d.Ast.d_name d.Ast.d_type)
    u.Ast.u_decls;
  (* only PARAMETER constants the body never reassigns are entry-invariant *)
  let assigned = Hashtbl.create 32 in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s_kind with
      | Ast.Assign (Ast.Var x, _) -> Hashtbl.replace assigned x ()
      | Ast.Do d -> Hashtbl.replace assigned d.Ast.do_var ()
      | Ast.Read items ->
          List.iter
            (function Ast.Var x -> Hashtbl.replace assigned x () | _ -> ())
            items
      | _ -> ())
    u.Ast.u_body;
  let acc = ref [] in
  List.iter
    (fun (name, e) ->
      if not (Hashtbl.mem assigned name) then
        match Env.eval_int (Env.of_alist !acc) e with
        | Some v -> acc := (name, v) :: !acc
        | None -> ())
    u.Ast.u_consts;
  {
    u_consts = Env.of_alist !acc;
    u_arrays = arrays;
    u_types = types;
    u_goto_targets = goto_targets u;
  }

(* statements (at any depth) of kinds that rule fission out wholesale *)
let has_forbidden (d : Ast.do_loop) =
  let bad = ref false in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.s_kind with
      | Ast.Goto _ | Ast.Call _ | Ast.Return | Ast.Stop | Ast.Comm _
      | Ast.Pipeline_recv _ | Ast.Pipeline_send _ ->
          bad := true
      | _ -> ())
    d.Ast.do_body;
  !bad

let has_targeted_label ue (d : Ast.do_loop) =
  ue.u_goto_targets <> []
  && begin
       let bad = ref false in
       Ast.iter_stmts
         (fun s ->
           match s.Ast.s_label with
           | Some l when List.mem l ue.u_goto_targets -> bad := true
           | _ -> ())
         d.Ast.do_body;
       !bad
     end

(* scalars assigned anywhere under the body statements (including inside
   IF branches) *)
let body_writes stmts =
  List.fold_left
    (fun ws s ->
      Ast.fold_stmts
        (fun ws s ->
          match s.Ast.s_kind with
          | Ast.Assign (Ast.Var x, _) -> SS.add x ws
          | Ast.Do d -> SS.add d.Ast.do_var ws
          | Ast.Read items ->
              List.fold_left
                (fun ws -> function Ast.Var x -> SS.add x ws | _ -> ws)
                ws items
          | _ -> ws)
        ws [ s ])
    SS.empty stmts

(* rebuild one fragment: duplicate every level (fresh statement ids, the
   source line preserved), provenance tag on the outermost *)
let rebuild ~line (levels : Ast.do_loop list) tag stmts =
  let rec go = function
    | [] -> assert false
    | [ (last : Ast.do_loop) ] ->
        Ast.mk_stmt ~line
          (Ast.Do { last with Ast.do_body = stmts; do_fission = None })
    | l :: rest ->
        Ast.mk_stmt ~line
          (Ast.Do { l with Ast.do_body = [ go rest ]; do_fission = None })
  in
  match go levels with
  | { Ast.s_kind = Ast.Do d; _ } as st ->
      { st with Ast.s_kind = Ast.Do { d with Ast.do_fission = Some tag } }
  | st -> st

(* attempt to distribute one nest; [None] when it must stay intact *)
let try_fission ue (st : Ast.stmt) (d : Ast.do_loop) :
    (Ast.stmt list * split) option =
  let levels, body = peel [] d in
  let n = List.length body in
  if n < 2 || has_forbidden d || has_targeted_label ue d then None
  else begin
    let vars = List.map (fun (l : Ast.do_loop) -> l.Ast.do_var) levels in
    let m = List.length vars in
    let lvl = Hashtbl.create 8 in
    let dup = ref false in
    List.iteri
      (fun i v ->
        if Hashtbl.mem lvl v then dup := true else Hashtbl.add lvl v i)
      vars;
    if !dup then None
    else begin
      let wrb = body_writes body in
      let consts = ue.u_consts in
      let steps =
        Array.of_list
          (List.map
             (fun (l : Ast.do_loop) ->
               match l.Ast.do_step with
               | None -> Some 1
               | Some e -> (
                   match Env.eval_int consts e with
                   | Some s when s <> 0 -> Some (compare s 0)
                   | _ -> None))
             levels)
      in
      (* a subscript is affine in the levels, constants and the integer
         scalars the body never assigns *)
      let ctx =
        {
          c_names =
            Access.names ~depth:m ~fold:(Env.eval_int consts)
              ~is_array:(Hashtbl.mem ue.u_arrays) ~leaf:(fun x ->
                match Hashtbl.find_opt lvl x with
                | Some l -> Access.Level l
                | None -> (
                    match Env.lookup consts x with
                    | Some c -> Access.Int c
                    | None ->
                        if (not (SS.mem x wrb))
                           && scalar_type ue.u_types x = Ast.Integer
                        then Access.Sym x
                        else Access.Other));
          c_lvl = lvl;
          c_m = m;
          c_consts = consts;
          c_arrays = ue.u_arrays;
          c_types = ue.u_types;
          c_steps = steps;
        }
      in
      (* loop variables assigned in the body, or bounds/steps reading
         body-written scalars or the nest's own (same-or-inner) loop
         variables: leave the nest alone *)
      let bounds_ok =
        List.for_all (fun v -> not (SS.mem v wrb)) vars
        && List.for_all
             (fun i ->
               let l = List.nth levels i in
               let bvars =
                 SS.union (expr_vars l.Ast.do_lo)
                   (SS.union (expr_vars l.Ast.do_hi)
                      (match l.Ast.do_step with
                      | Some e -> expr_vars e
                      | None -> SS.empty))
               in
               SS.is_empty (SS.inter bvars wrb)
               && List.for_all
                    (fun j -> not (SS.mem (List.nth vars j) bvars))
                    (List.init (m - i) (fun k -> i + k)))
             (List.init m Fun.id)
      in
      if not bounds_ok then None
      else begin
        let stmts = Array.of_list body in
        (* a loop inside the body keeps everything it could touch
           together *)
        let accs =
          Array.map
            (fun s ->
              let a = Access.summarize ctx.c_names [ s ] in
              if Ast.fold_stmts
                   (fun d s -> d || match s.Ast.s_kind with Ast.Do _ -> true | _ -> false)
                   false [ s ]
              then { a with opaque = true }
              else a)
            stmts
        in
        (* adjacency: edge i -> j means i's fragment must run first *)
        let adj = Array.make n [] in
        let edge i j = adj.(i) <- j :: adj.(i) in
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            match stmt_dep ctx accs.(i) accs.(j) with
            | No_dep -> ()
            | Fwd -> edge i j
            | Bwd -> edge j i
            | Both ->
                edge i j;
                edge j i
          done
        done;
        let groups = scc_topo n adj in
        (* does statement [i] read a body-assigned scalar no earlier
           statement assigns?  That read sees the previous point's value,
           which no row keeps, so its fragment would fall back with
           [Carried_scalar].  A fold's accumulator that no other statement
           mentions is exempt, as the fused tier allows.  Call in order. *)
        let assigned = ref SS.empty in
        let early i s =
          let a = accs.(i) in
          let reads =
            match Access.fold ctx.c_names s with
            | Some (x, _, e)
              when (not (SS.mem x (expr_vars e)))
                   && Array.for_all
                        (fun (b : string Access.t) ->
                          b == a || not (SS.mem x b.reads || SS.mem x b.writes))
                        accs ->
                SS.remove x a.early
            | _ -> a.early
          in
          let early = not (SS.subset (SS.inter reads wrb) !assigned) in
          assigned := SS.union !assigned a.writes;
          early
        in
        if List.length groups < 2 then None
        else begin
          (* profitability: at least one all-fusable fragment that writes
             an array, and at least one residue statement — otherwise
             splitting only duplicates loop overhead *)
          let fus =
            Array.mapi (fun i s -> fusable_stmt ctx s && not (early i s)) stmts
          in
          let promising =
            List.exists
              (fun g ->
                List.for_all (fun i -> fus.(i)) g
                && List.exists (fun i -> writes_array ctx stmts.(i)) g)
              groups
            && Array.exists not fus
          in
          if not promising then None
          else begin
            let nfrags = List.length groups in
            let line = st.Ast.s_line in
            let frags =
              List.mapi
                (fun k g ->
                  rebuild ~line levels
                    { Ast.fi_frag = k + 1; fi_nfrags = nfrags }
                    (List.map (fun i -> stmts.(i)) g))
                groups
            in
            Some (frags, { sp_line = line; sp_vars = vars; sp_nfrags = nfrags })
          end
        end
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Unit traversal                                                      *)
(* ------------------------------------------------------------------ *)

let distribute (u : Ast.program_unit) : Ast.program_unit * split list =
  let ue = uenv_of u in
  let splits = ref [] in
  let rec walk_block block = List.concat_map walk_stmt block
  and walk_stmt (s : Ast.stmt) : Ast.stmt list =
    match s.Ast.s_kind with
    | Ast.Do d -> (
        match try_fission ue s d with
        | Some (frags, sp) ->
            splits := sp :: !splits;
            frags
        | None ->
            [ { s with
                Ast.s_kind =
                  Ast.Do { d with Ast.do_body = walk_block d.Ast.do_body } } ])
    | Ast.If (branches, els) ->
        [ { s with
            Ast.s_kind =
              Ast.If
                ( List.map (fun (c, b) -> (c, walk_block b)) branches,
                  Option.map walk_block els ) } ]
    | _ -> [ s ]
  in
  let body = walk_block u.Ast.u_body in
  ({ u with Ast.u_body = body }, List.rev !splits)
