open Ast

(* maximum statement label used anywhere in a program *)
let max_label p =
  let acc = ref 0 in
  List.iter
    (fun u ->
      iter_stmts
        (fun st ->
          (match st.s_label with Some l -> acc := max !acc l | None -> ());
          match st.s_kind with
          | Goto l -> acc := max !acc l
          | _ -> ())
        u.u_body)
    p.p_units;
  !acc

type state = {
  program : Ast.program;
  mutable next_label : int;
  (* canonical member names per COMMON block *)
  commons : (string, string list) Hashtbl.t;
  mutable out_decls : decl list;  (* reversed *)
  mutable out_consts : (string * expr) list;  (* reversed *)
  mutable out_data : (string * expr list) list;  (* reversed *)
  mutable seen_decls : (string, unit) Hashtbl.t;
}

let fresh_label st =
  let l = st.next_label in
  st.next_label <- l + 1;
  l

let find_subroutine st ~line name =
  match Ast.find_unit st.program name with
  | Some u -> u
  | None ->
      Loc.errorf (Loc.make line 0) "inline: subroutine '%s' not found" name

(* Renaming environment for one unit expansion. *)
type env = {
  call_line : int;  (* the CALL's line: argument-binding errors name it *)
  (* variable -> replacement expression *)
  rename : (string, expr) Hashtbl.t;
  label_map : (int, int) Hashtbl.t;
  assigned_dummies_ok : (string, unit) Hashtbl.t;
      (* dummies bound to variables, hence assignable *)
  mutable return_label : int option;
}

let lookup_var env x = Hashtbl.find_opt env.rename x

let rec rewrite_expr env (e : expr) =
  match e with
  | Var x -> ( match lookup_var env x with Some r -> r | None -> e)
  | Ref (x, args) -> (
      let args = List.map (rewrite_expr env) args in
      if is_intrinsic x then Ref (x, args)
      else
        match lookup_var env x with
        | Some (Var y) -> Ref (y, args)
        | Some _ ->
            Loc.errorf (Loc.make env.call_line 0)
              "inline: array dummy '%s' bound to a non-variable" x
        | None -> Ref (x, args))
  | Unop (op, a) -> Unop (op, rewrite_expr env a)
  | Binop (op, a, b) -> Binop (op, rewrite_expr env a, rewrite_expr env b)
  | Local_lo (d, a) -> Local_lo (d, rewrite_expr env a)
  | Local_hi (d, a) -> Local_hi (d, rewrite_expr env a)
  | Const_int _ | Const_real _ | Const_bool _ | Const_str _ -> e

let map_label env l =
  match Hashtbl.find_opt env.label_map l with
  | Some l' -> l'
  | None -> l

let rewrite_lhs env (e : expr) =
  match e with
  | Var x -> (
      match lookup_var env x with
      | Some (Var y) -> Var y
      | Some _ when Hashtbl.mem env.assigned_dummies_ok x -> assert false
      | Some _ ->
          Loc.errorf (Loc.make env.call_line 0)
            "inline: dummy '%s' is assigned but bound to an expression" x
      | None -> e)
  | Ref _ -> rewrite_expr env e
  | _ -> failwith "inline: bad assignment target"

let rec expand_block st path env block =
  List.concat_map (expand_stmt st path env) block

and expand_stmt st path env stmt =
  let line = stmt.s_line in
  let label = Option.map (map_label env) stmt.s_label in
  let re = rewrite_expr env in
  let mk kind = [ mk_stmt ?label ~line kind ] in
  match stmt.s_kind with
  | Assign (lhs, rhs) -> mk (Assign (rewrite_lhs env lhs, re rhs))
  | If (branches, els) ->
      mk
        (If
           ( List.map
               (fun (c, b) -> (re c, expand_block st path env b))
               branches,
             Option.map (expand_block st path env) els ))
  | Do d ->
      let var =
        match lookup_var env d.do_var with
        | Some (Var y) -> y
        | Some _ ->
            Loc.errorf (Loc.make env.call_line 0)
              "inline: DO variable bound to an expression"
        | None -> d.do_var
      in
      mk
        (Do
           {
             do_var = var;
             do_lo = re d.do_lo;
             do_hi = re d.do_hi;
             do_step = Option.map re d.do_step;
             do_body = expand_block st path env d.do_body;
             do_sched = d.do_sched;
             do_fission = d.do_fission;
           })
  | Goto l -> mk (Goto (map_label env l))
  | Continue -> mk Continue
  | Call (name, args) ->
      let args = List.map re args in
      let callee = find_subroutine st ~line name in
      if List.mem (String.lowercase_ascii name) path then
        Loc.errorf (Loc.make line 0) "inline: recursion through '%s'" name;
      let body =
        expand_call st ~line (String.lowercase_ascii name :: path) callee args
      in
      (* keep the call site's label on a leading CONTINUE *)
      (match label with
      | Some _ -> mk_stmt ?label ~line Continue :: body
      | None -> body)
  | Return -> (
      match env.return_label with
      | Some l -> mk (Goto l)
      | None ->
          let l = fresh_label st in
          env.return_label <- Some l;
          mk (Goto l))
  | Stop -> mk Stop
  | Read items -> mk (Read (List.map re items))
  | Write items -> mk (Write (List.map re items))
  | Comm c -> mk (Comm c)
  | Pipeline_recv r -> mk (Pipeline_recv r)
  | Pipeline_send s_ -> mk (Pipeline_send s_)

(* errors in binding the callee to the CALL at [line] name that line *)
and expand_call st ~line path callee args =
  let fail fmt = Loc.errorf (Loc.make line 0) fmt in
  let params =
    match callee.u_kind with
    | Subroutine ps -> ps
    | Main -> fail "inline: cannot call the main program"
  in
  if List.length params <> List.length args then
    fail "inline: call to '%s' passes %d args for %d parameters"
      callee.u_name (List.length args) (List.length params);
  let env =
    {
      call_line = line;
      rename = Hashtbl.create 16;
      label_map = Hashtbl.create 16;
      assigned_dummies_ok = Hashtbl.create 8;
      return_label = None;
    }
  in
  (* dummy parameters *)
  List.iter2
    (fun p a ->
      Hashtbl.replace env.rename p a;
      match a with
      | Var _ -> Hashtbl.replace env.assigned_dummies_ok p ()
      | _ -> ())
    params args;
  (* COMMON members: positional match against the canonical declaration *)
  List.iter
    (fun (blk, members) ->
      match Hashtbl.find_opt st.commons blk with
      | None ->
          Hashtbl.replace st.commons blk members;
          (* first declaration becomes canonical: no renaming *)
          ()
      | Some canonical ->
          if List.length canonical <> List.length members then
            fail "inline: COMMON /%s/ has inconsistent member counts" blk;
          List.iter2
            (fun canon m ->
              if m <> canon then Hashtbl.replace env.rename m (Var canon))
            canonical members)
    callee.u_commons;
  (* remaining locals: prefix with the unit name *)
  let prefix = String.lowercase_ascii callee.u_name ^ "_" in
  let is_common_member x =
    List.exists (fun (_, ms) -> List.mem x ms) callee.u_commons
  in
  let rename_local x =
    if Hashtbl.mem env.rename x then ()
    else if is_common_member x then ()
    else Hashtbl.replace env.rename x (Var (prefix ^ x))
  in
  (* locals are: declared names, parameter constants, DO variables and
     assigned scalars found in the body *)
  List.iter (fun d -> rename_local d.d_name) callee.u_decls;
  List.iter (fun (n, _) -> rename_local n) callee.u_consts;
  iter_stmts
    (fun s ->
      match s.s_kind with
      | Do d -> rename_local d.do_var
      | Assign (Var x, _) -> rename_local x
      | _ -> ())
    callee.u_body;
  (* relabel *)
  iter_stmts
    (fun s ->
      match s.s_label with
      | Some l ->
          if not (Hashtbl.mem env.label_map l) then
            Hashtbl.replace env.label_map l (fresh_label st)
      | None -> ())
    callee.u_body;
  (* constants (renamed) *)
  List.iter
    (fun (n, e) ->
      let n' =
        match lookup_var env n with
        | Some (Var y) -> y
        | _ -> n
      in
      if not (Hashtbl.mem st.seen_decls ("const:" ^ n')) then begin
        Hashtbl.replace st.seen_decls ("const:" ^ n') ();
        st.out_consts <- (n', rewrite_expr env e) :: st.out_consts
      end)
    callee.u_consts;
  (* declarations (renamed; dummies bound to caller variables are dropped) *)
  List.iter
    (fun d ->
      let keep, name =
        if List.mem d.d_name params then (false, d.d_name)
        else
          match lookup_var env d.d_name with
          | Some (Var y) -> (true, y)
          | Some _ -> (false, d.d_name)
          | None -> (true, d.d_name)
      in
      if keep && not (Hashtbl.mem st.seen_decls name) then begin
        Hashtbl.replace st.seen_decls name ();
        st.out_decls <-
          { d with d_name = name;
                   d_dims = List.map (fun (a, b) ->
                       (rewrite_expr env a, rewrite_expr env b)) d.d_dims }
          :: st.out_decls
      end)
    callee.u_decls;
  (* data initializations *)
  List.iter
    (fun (n, vs) ->
      let n' = match lookup_var env n with Some (Var y) -> y | _ -> n in
      if not (Hashtbl.mem st.seen_decls ("data:" ^ n')) then begin
        Hashtbl.replace st.seen_decls ("data:" ^ n') ();
        st.out_data <- (n', vs) :: st.out_data
      end)
    callee.u_data;
  let body = expand_block st path env callee.u_body in
  (* a RETURN somewhere in the body jumps to a trailing CONTINUE *)
  match env.return_label with
  | None -> body
  | Some l -> body @ [ mk_stmt ~label:l ~line:0 Continue ]

let program (p : Ast.program) =
  let main = Ast.main_unit p in
  let st =
    {
      program = p;
      next_label = max_label p + 1;
      commons = Hashtbl.create 8;
      out_decls = [];
      out_consts = [];
      out_data = [];
      seen_decls = Hashtbl.create 64;
    }
  in
  (* the main unit's own names are canonical *)
  List.iter
    (fun (blk, members) ->
      if not (Hashtbl.mem st.commons blk) then
        Hashtbl.replace st.commons blk members)
    main.u_commons;
  List.iter
    (fun d -> Hashtbl.replace st.seen_decls d.d_name ())
    main.u_decls;
  List.iter
    (fun (n, _) -> Hashtbl.replace st.seen_decls ("const:" ^ n) ())
    main.u_consts;
  (* the main unit binds no dummies: no argument-binding error arises *)
  let env =
    {
      call_line = 0;
      rename = Hashtbl.create 1;
      label_map = Hashtbl.create 1;
      assigned_dummies_ok = Hashtbl.create 1;
      return_label = None;
    }
  in
  let body = expand_block st [ String.lowercase_ascii main.u_name ] env main.u_body in
  let commons =
    Hashtbl.fold (fun blk ms acc -> (blk, ms) :: acc) st.commons []
    |> List.sort compare
  in
  {
    u_name = main.u_name;
    u_kind = Main;
    u_line = main.u_line;
    u_decls = main.u_decls @ List.rev st.out_decls;
    u_consts = main.u_consts @ List.rev st.out_consts;
    u_commons = commons;
    u_data = main.u_data @ List.rev st.out_data;
    u_body = body;
  }
