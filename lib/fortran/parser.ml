open Ast

type state = {
  toks : Lexer.token array;
  mutable pos : int;
  (* labels of open labelled-DO loops, innermost first *)
  mutable do_labels : int list;
  (* set when a statement carrying an open DO label has been consumed; the
     enclosing DO parsers terminate on it (shared terminal labels) *)
  mutable terminated : int option;
  (* control variables of the open DO loops with their lines, innermost
     first *)
  mutable do_vars : (string * int) list;
}

let make_state toks =
  { toks = Array.of_list toks; pos = 0; do_labels = []; terminated = None;
    do_vars = [] }

let peek st = st.toks.(st.pos).tok
let peek_line st = st.toks.(st.pos).tline
let advance st = st.pos <- st.pos + 1

let next st =
  let t = st.toks.(st.pos) in
  advance st;
  t.tok

let error st fmt =
  Loc.errorf (Loc.make (peek_line st) 0) fmt

let expect st tok =
  let got = peek st in
  if Token.equal got tok then advance st
  else
    error st "expected %s but found %s" (Token.to_string tok)
      (Token.to_string got)

let accept st tok =
  if Token.equal (peek st) tok then (advance st; true) else false

(* Case-insensitive keyword matching on identifiers. *)
let peek_ident st =
  match peek st with Token.Ident s -> Some s | _ -> None

let accept_ident st kw =
  match peek st with
  | Token.Ident s when s = kw -> advance st; true
  | _ -> false

let expect_ident st kw =
  if not (accept_ident st kw) then
    error st "expected keyword '%s' but found %s" kw
      (Token.to_string (peek st))

let ident st =
  match next st with
  | Token.Ident s -> s
  | t -> error st "expected an identifier but found %s" (Token.to_string t)

let skip_newlines st =
  while Token.equal (peek st) Token.Newline do advance st done

let end_of_stmt st = expect st Token.Newline

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* fold negation of literals so that "-5" and DATA-style negative constants
   are the same AST *)
let neg = function
  | Const_int i -> Const_int (-i)
  | Const_real f -> Const_real (-.f)
  | e -> Unop (Neg, e)

let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while accept st Token.Or do
    let rhs = parse_and st in
    lhs := Binop (Or, !lhs, rhs)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while accept st Token.And do
    let rhs = parse_not st in
    lhs := Binop (And, !lhs, rhs)
  done;
  !lhs

and parse_not st =
  if accept st Token.Not then Unop (Lnot, parse_not st)
  else parse_rel st

and parse_rel st =
  let lhs = parse_additive st in
  let op =
    match peek st with
    | Token.Lt -> Some Lt
    | Token.Le -> Some Le
    | Token.Gt -> Some Gt
    | Token.Ge -> Some Ge
    | Token.Eq -> Some Eq
    | Token.Ne -> Some Ne
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
      advance st;
      let rhs = parse_additive st in
      Binop (op, lhs, rhs)

and parse_additive st =
  (* optional leading sign binds looser than * and ** *)
  let first =
    if accept st Token.Minus then neg (parse_term st)
    else begin
      ignore (accept st Token.Plus);
      parse_term st
    end
  in
  let lhs = ref first in
  let continue = ref true in
  while !continue do
    if accept st Token.Plus then lhs := Binop (Add, !lhs, parse_term st)
    else if accept st Token.Minus then lhs := Binop (Sub, !lhs, parse_term st)
    else continue := false
  done;
  !lhs

and parse_term st =
  let lhs = ref (parse_factor st) in
  let continue = ref true in
  while !continue do
    if accept st Token.Star then lhs := Binop (Mul, !lhs, parse_factor st)
    else if accept st Token.Slash then lhs := Binop (Div, !lhs, parse_factor st)
    else continue := false
  done;
  !lhs

and parse_factor st =
  (* right-associative ** *)
  let base = parse_primary st in
  if accept st Token.Power then
    let exp =
      (* unary minus allowed in exponent: a ** -2 *)
      if accept st Token.Minus then neg (parse_factor st)
      else parse_factor st
    in
    Binop (Pow, base, exp)
  else base

and parse_primary st =
  match next st with
  | Token.Int i -> Const_int i
  | Token.Real f -> Const_real f
  | Token.Str s -> Const_str s
  | Token.True -> Const_bool true
  | Token.False -> Const_bool false
  | Token.Minus -> neg (parse_primary st)
  | Token.Plus -> parse_primary st
  | Token.Lparen ->
      let e = parse_expr st in
      expect st Token.Rparen;
      e
  | Token.Ident name ->
      if accept st Token.Lparen then begin
        let args = parse_arg_list st in
        expect st Token.Rparen;
        Ref (name, args)
      end
      else Var name
  | t -> error st "expected an expression but found %s" (Token.to_string t)

and parse_arg_list st =
  if Token.equal (peek st) Token.Rparen then []
  else begin
    let first = parse_expr st in
    let args = ref [ first ] in
    while accept st Token.Comma do
      args := parse_expr st :: !args
    done;
    List.rev !args
  end

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

(* A block terminator keyword at the current position? *)
let at_block_end st =
  match peek_ident st with
  | Some ("end" | "enddo" | "endif" | "else" | "elseif") -> true
  | _ -> false

let take_label st =
  match peek st with
  | Token.Label l -> advance st; Some l
  | _ -> None

(* read(*,*) / write(*,*) control list: accept '*' and integers, ignore *)
let parse_io_control st =
  if accept st Token.Lparen then begin
    let continue = ref true in
    while !continue do
      (match peek st with
      | Token.Star | Token.Int _ -> advance st
      | Token.Ident _ -> advance st
      | t -> error st "unexpected token in I/O control list: %s"
               (Token.to_string t));
      if not (accept st Token.Comma) then continue := false
    done;
    expect st Token.Rparen
  end
  else if accept st Token.Star then
    ignore (accept st Token.Comma)
  else error st "expected I/O control list"

let parse_io_items st =
  if Token.equal (peek st) Token.Newline then []
  else begin
    let items = ref [ parse_expr st ] in
    while accept st Token.Comma do
      items := parse_expr st :: !items
    done;
    List.rev !items
  end

let rec parse_stmt st : stmt =
  skip_newlines st;
  let label = take_label st in
  let line = peek_line st in
  let mk kind =
    let s = mk_stmt ?label ~line kind in
    (* a labelled statement that matches an open DO label terminates that
       loop (and every enclosing loop sharing the label) *)
    (match label with
    | Some l when List.mem l st.do_labels -> st.terminated <- Some l
    | _ -> ());
    s
  in
  match peek_ident st with
  | Some "continue" ->
      advance st;
      end_of_stmt st;
      mk Continue
  | Some "goto" ->
      advance st;
      let target =
        match next st with
        | Token.Int l -> l
        | t -> error st "goto expects a label, found %s" (Token.to_string t)
      in
      end_of_stmt st;
      mk (Goto target)
  | Some "go" ->
      advance st;
      expect_ident st "to";
      let target =
        match next st with
        | Token.Int l -> l
        | t -> error st "go to expects a label, found %s" (Token.to_string t)
      in
      end_of_stmt st;
      mk (Goto target)
  | Some "call" ->
      advance st;
      let name = ident st in
      let args =
        if accept st Token.Lparen then begin
          let args = parse_arg_list st in
          expect st Token.Rparen;
          args
        end
        else []
      in
      end_of_stmt st;
      mk (Call (name, args))
  | Some "return" ->
      advance st;
      end_of_stmt st;
      mk Return
  | Some "stop" ->
      advance st;
      (* optional stop code *)
      (match peek st with
      | Token.Int _ | Token.Str _ -> advance st
      | _ -> ());
      end_of_stmt st;
      mk Stop
  | Some "read" ->
      advance st;
      parse_io_control st;
      let items = parse_io_items st in
      end_of_stmt st;
      mk (Read items)
  | Some "write" ->
      advance st;
      parse_io_control st;
      let items = parse_io_items st in
      end_of_stmt st;
      mk (Write items)
  | Some "print" ->
      advance st;
      (if accept st Token.Star then ignore (accept st Token.Comma)
       else error st "print expects '*'");
      let items = parse_io_items st in
      end_of_stmt st;
      mk (Write items)
  | Some "if" -> parse_if st mk
  | Some "do" -> parse_do st mk
  | Some _ ->
      (* assignment: lhs = rhs *)
      let name = ident st in
      let lhs =
        if accept st Token.Lparen then begin
          let args = parse_arg_list st in
          expect st Token.Rparen;
          Ref (name, args)
        end
        else Var name
      in
      expect st Token.Assign;
      let rhs = parse_expr st in
      end_of_stmt st;
      mk (Assign (lhs, rhs))
  | None ->
      error st "expected a statement but found %s" (Token.to_string (peek st))

and parse_if st mk =
  expect_ident st "if";
  expect st Token.Lparen;
  let cond = parse_expr st in
  expect st Token.Rparen;
  if accept_ident st "then" then begin
    end_of_stmt st;
    let branches = ref [] in
    let els = ref None in
    let first_block = parse_block st in
    branches := [ (cond, first_block) ];
    let rec tail () =
      skip_newlines st;
      if accept_ident st "elseif" then begin
        expect st Token.Lparen;
        let c = parse_expr st in
        expect st Token.Rparen;
        expect_ident st "then";
        end_of_stmt st;
        let b = parse_block st in
        branches := (c, b) :: !branches;
        tail ()
      end
      else if accept_ident st "else" then
        if accept_ident st "if" then begin
          expect st Token.Lparen;
          let c = parse_expr st in
          expect st Token.Rparen;
          expect_ident st "then";
          end_of_stmt st;
          let b = parse_block st in
          branches := (c, b) :: !branches;
          tail ()
        end
        else begin
          end_of_stmt st;
          els := Some (parse_block st);
          close_if ()
        end
      else close_if ()
    and close_if () =
      skip_newlines st;
      if accept_ident st "endif" then end_of_stmt st
      else begin
        expect_ident st "end";
        expect_ident st "if";
        end_of_stmt st
      end
    in
    tail ();
    mk (If (List.rev !branches, !els))
  end
  else begin
    (* logical IF: if (cond) statement *)
    let body_stmt = parse_inline_stmt st in
    mk (If ([ (cond, [ body_stmt ]) ], None))
  end

(* The statement part of a logical IF — a restricted subset, ending the
   current line. *)
and parse_inline_stmt st =
  let line = peek_line st in
  match peek_ident st with
  | Some "goto" ->
      advance st;
      let target =
        match next st with
        | Token.Int l -> l
        | t -> error st "goto expects a label, found %s" (Token.to_string t)
      in
      end_of_stmt st;
      mk_stmt ~line (Goto target)
  | Some "go" ->
      advance st;
      expect_ident st "to";
      let target =
        match next st with
        | Token.Int l -> l
        | t -> error st "go to expects a label, found %s" (Token.to_string t)
      in
      end_of_stmt st;
      mk_stmt ~line (Goto target)
  | Some "call" ->
      advance st;
      let name = ident st in
      let args =
        if accept st Token.Lparen then begin
          let args = parse_arg_list st in
          expect st Token.Rparen;
          args
        end
        else []
      in
      end_of_stmt st;
      mk_stmt ~line (Call (name, args))
  | Some "return" ->
      advance st;
      end_of_stmt st;
      mk_stmt ~line Return
  | Some "stop" ->
      advance st;
      (match peek st with
      | Token.Int _ | Token.Str _ -> advance st
      | _ -> ());
      end_of_stmt st;
      mk_stmt ~line Stop
  | Some "continue" ->
      advance st;
      end_of_stmt st;
      mk_stmt ~line Continue
  | Some _ ->
      let name = ident st in
      let lhs =
        if accept st Token.Lparen then begin
          let args = parse_arg_list st in
          expect st Token.Rparen;
          Ref (name, args)
        end
        else Var name
      in
      expect st Token.Assign;
      let rhs = parse_expr st in
      end_of_stmt st;
      mk_stmt ~line (Assign (lhs, rhs))
  | None -> error st "expected a statement after logical IF"

and parse_do st mk =
  let line = peek_line st in
  expect_ident st "do";
  (* optional terminal label *)
  let term_label =
    match peek st with
    | Token.Int l -> advance st; ignore (accept st Token.Comma); Some l
    | _ -> None
  in
  let var = ident st in
  (* Fortran 77 forbids redefining an active DO variable *)
  (match List.assoc_opt var st.do_vars with
  | Some outer ->
      Loc.errorf (Loc.make line 0)
        "DO variable %s is already the control variable of the enclosing \
         DO at line %d"
        var outer
  | None -> ());
  expect st Token.Assign;
  let lo = parse_expr st in
  expect st Token.Comma;
  let hi = parse_expr st in
  let step = if accept st Token.Comma then Some (parse_expr st) else None in
  end_of_stmt st;
  st.do_vars <- (var, line) :: st.do_vars;
  let body =
    match term_label with
    | None ->
        let body = parse_block st in
        skip_newlines st;
        if accept_ident st "enddo" then end_of_stmt st
        else begin
          expect_ident st "end";
          expect_ident st "do";
          end_of_stmt st
        end;
        body
    | Some l ->
        st.do_labels <- l :: st.do_labels;
        let body = parse_labeled_body st l in
        st.do_labels <- List.tl st.do_labels;
        (* if the label is still expected by an enclosing DO, leave
           [terminated] set so it closes too *)
        (match st.terminated with
        | Some l' when l' = l && not (List.mem l st.do_labels) ->
            st.terminated <- None
        | _ -> ());
        body
  in
  st.do_vars <- List.tl st.do_vars;
  mk (Do { do_var = var; do_lo = lo; do_hi = hi; do_step = step;
           do_body = body; do_sched = Sched_seq; do_fission = None })

and parse_labeled_body st l =
  let stmts = ref [] in
  let continue = ref true in
  while !continue do
    skip_newlines st;
    let stmt = parse_stmt st in
    stmts := stmt :: !stmts;
    match st.terminated with
    | Some l' when l' = l -> continue := false
    | Some _ ->
        error st "DO loop termination label mismatch (expected %d)" l
    | None -> ()
  done;
  List.rev !stmts

and parse_block st =
  let stmts = ref [] in
  let continue = ref true in
  while !continue do
    skip_newlines st;
    if at_block_end st then continue := false
    else begin
      let stmt = parse_stmt st in
      stmts := stmt :: !stmts;
      if st.terminated <> None then
        error st "labelled DO termination crosses a block boundary"
    end
  done;
  List.rev !stmts

(* ------------------------------------------------------------------ *)
(* Declarations and program units                                      *)
(* ------------------------------------------------------------------ *)

type unit_builder = {
  mutable decls : decl list;
  mutable consts : (string * expr) list;
  mutable commons : (string * string list) list;
  mutable data : (string * expr list) list;
}

let parse_dims st =
  if accept st Token.Lparen then begin
    let dims = ref [] in
    let parse_dim () =
      let first = parse_expr st in
      if accept st Token.Colon then begin
        let upper = parse_expr st in
        dims := (first, upper) :: !dims
      end
      else dims := (Const_int 1, first) :: !dims
    in
    parse_dim ();
    while accept st Token.Comma do parse_dim () done;
    expect st Token.Rparen;
    List.rev !dims
  end
  else []

let parse_decl_entities st b dtype =
  let parse_one () =
    let name = ident st in
    let dims = parse_dims st in
    b.decls <- { d_name = name; d_type = dtype; d_dims = dims } :: b.decls
  in
  parse_one ();
  while accept st Token.Comma do parse_one () done;
  end_of_stmt st

(* DATA name /v1, v2, n*v/ [, name /.../]*.  Values are restricted to
   signed constants (with optional n*value repeat counts): a full
   expression parser would swallow the '/' and '*' delimiters. *)
let parse_data st b =
  let parse_constant () =
    let is_neg = accept st Token.Minus in
    let () = if not is_neg then ignore (accept st Token.Plus) in
    let v =
      match next st with
      | Token.Int i -> Const_int i
      | Token.Real f -> Const_real f
      | Token.True -> Const_bool true
      | Token.False -> Const_bool false
      | t -> error st "DATA value must be a constant, found %s"
               (Token.to_string t)
    in
    if is_neg then neg v else v
  in
  let parse_group () =
    let name = ident st in
    expect st Token.Slash;
    let values = ref [] in
    let parse_value () =
      let v = parse_constant () in
      match v with
      | Const_int n when accept st Token.Star ->
          let rep = parse_constant () in
          for _ = 1 to n do values := rep :: !values done
      | v -> values := v :: !values
    in
    parse_value ();
    while accept st Token.Comma do parse_value () done;
    expect st Token.Slash;
    b.data <- (name, List.rev !values) :: b.data
  in
  parse_group ();
  while accept st Token.Comma do parse_group () done;
  end_of_stmt st

(* Returns [true] when the current line was a declaration. *)
let rec parse_decl_line st b =
  skip_newlines st;
  match peek_ident st with
  | Some "implicit" ->
      (* implicit none — accepted and ignored *)
      advance st;
      expect_ident st "none";
      end_of_stmt st;
      true
  | Some "integer" ->
      advance st;
      parse_decl_entities st b Integer;
      true
  | Some "logical" ->
      advance st;
      parse_decl_entities st b Logical;
      true
  | Some "real" ->
      advance st;
      let dtype =
        if accept st Token.Star then begin
          match next st with
          | Token.Int 8 -> Double
          | Token.Int 4 -> Real
          | t -> error st "unsupported real kind *%s" (Token.to_string t)
        end
        else Real
      in
      parse_decl_entities st b dtype;
      true
  | Some "double" ->
      advance st;
      expect_ident st "precision";
      parse_decl_entities st b Double;
      true
  | Some "dimension" ->
      advance st;
      (* dimension a(n), b(m): bare dimension defaults to REAL *)
      parse_decl_entities st b Real;
      true
  | Some "parameter" ->
      advance st;
      expect st Token.Lparen;
      let parse_one () =
        let name = ident st in
        expect st Token.Assign;
        let value = parse_expr st in
        b.consts <- (name, value) :: b.consts
      in
      parse_one ();
      while accept st Token.Comma do parse_one () done;
      expect st Token.Rparen;
      end_of_stmt st;
      true
  | Some "common" ->
      advance st;
      let block_name =
        if accept st Token.Slash then begin
          let n = ident st in
          expect st Token.Slash;
          n
        end
        else ""
      in
      let vars = ref [ ident st ] in
      (* allow declared dimensions inside COMMON: common /f/ u(n,m) *)
      let absorb_dims () =
        match parse_dims st with
        | [] -> ()
        | dims ->
            let name = List.hd !vars in
            b.decls <-
              { d_name = name; d_type = Real; d_dims = dims } :: b.decls
      in
      absorb_dims ();
      while accept st Token.Comma do
        vars := ident st :: !vars;
        absorb_dims ()
      done;
      end_of_stmt st;
      b.commons <- (block_name, List.rev !vars) :: b.commons;
      true
  | Some "data" ->
      advance st;
      parse_data st b;
      true
  | _ -> false

and parse_decl_section st b =
  if parse_decl_line st b then parse_decl_section st b

let parse_unit_body st =
  let stmts = ref [] in
  let continue = ref true in
  while !continue do
    skip_newlines st;
    match peek_ident st with
    | Some "end" ->
        advance st;
        end_of_stmt st;
        continue := false
    | _ ->
        let stmt = parse_stmt st in
        stmts := stmt :: !stmts;
        if st.terminated <> None then
          error st "unterminated labelled DO loop"
  done;
  List.rev !stmts

let parse_unit st =
  skip_newlines st;
  let line = peek_line st in
  let kind, name =
    match peek_ident st with
    | Some "program" ->
        advance st;
        let name = ident st in
        end_of_stmt st;
        (Main, name)
    | Some "subroutine" ->
        advance st;
        let name = ident st in
        let params =
          if accept st Token.Lparen then begin
            let ps =
              if Token.equal (peek st) Token.Rparen then []
              else begin
                let ps = ref [ ident st ] in
                while accept st Token.Comma do ps := ident st :: !ps done;
                List.rev !ps
              end
            in
            expect st Token.Rparen;
            ps
          end
          else []
        in
        end_of_stmt st;
        (Subroutine params, name)
    | _ ->
        error st "expected PROGRAM or SUBROUTINE, found %s"
          (Token.to_string (peek st))
  in
  let b = { decls = []; consts = []; commons = []; data = [] } in
  parse_decl_section st b;
  let body = parse_unit_body st in
  {
    u_name = name;
    u_kind = kind;
    u_line = line;
    u_decls = List.rev b.decls;
    u_consts = List.rev b.consts;
    u_commons = List.rev b.commons;
    u_data = List.rev b.data;
    u_body = body;
  }

let parse source =
  let toks, directives = Lexer.tokenize source in
  let st = make_state toks in
  let units = ref [] in
  skip_newlines st;
  while not (Token.equal (peek st) Token.Eof) do
    units := parse_unit st :: !units;
    skip_newlines st
  done;
  { p_units = List.rev !units; p_directives = directives }

let parse_expr_string s =
  (* tokenize directly: [tokenize] would mistake a leading integer for a
     statement label *)
  let toks =
    Lexer.tokens_of_line 1 s @ [ { Lexer.tok = Token.Eof; tline = 1 } ]
  in
  let st = make_state toks in
  parse_expr st
