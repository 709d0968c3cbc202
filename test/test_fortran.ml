(** Unit and property tests for the Fortran frontend: lexer, parser,
    pretty-printer round-trips, directives. *)

open Autocfd_fortran

let parse = Parser.parse
let parse_e = Parser.parse_expr_string

(* structural equality of expressions ignoring nothing — exprs have
   derived eq *)
let expr_eq = Ast.equal_expr

let check_expr msg expected actual =
  Alcotest.(check bool) msg true (expr_eq expected actual)

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let test_lex_numbers () =
  let toks s =
    List.map (fun t -> t.Lexer.tok) (Lexer.tokens_of_line 1 s)
  in
  Alcotest.(check bool) "int" true (toks "42" = [ Token.Int 42 ]);
  Alcotest.(check bool) "real" true (toks "4.25" = [ Token.Real 4.25 ]);
  Alcotest.(check bool) "exp" true (toks "1e3" = [ Token.Real 1000.0 ]);
  Alcotest.(check bool) "dexp" true (toks "1.5d2" = [ Token.Real 150.0 ]);
  Alcotest.(check bool) "neg exp" true (toks "2.0e-2" = [ Token.Real 0.02 ]);
  Alcotest.(check bool) "leading dot" true (toks ".5" = [ Token.Real 0.5 ]);
  Alcotest.(check bool) "dot lt" true
    (toks "1.lt.2" = [ Token.Int 1; Token.Lt; Token.Int 2 ]);
  Alcotest.(check bool) "real then lt" true
    (toks "1.0.lt.x" = [ Token.Real 1.0; Token.Lt; Token.Ident "x" ])

let test_lex_operators () =
  let toks s =
    List.map (fun t -> t.Lexer.tok) (Lexer.tokens_of_line 1 s)
  in
  Alcotest.(check bool) "power" true
    (toks "a**2" = [ Token.Ident "a"; Token.Power; Token.Int 2 ]);
  Alcotest.(check bool) "relational new-style" true
    (toks "a<=b" = [ Token.Ident "a"; Token.Le; Token.Ident "b" ]);
  Alcotest.(check bool) "f90 ne" true
    (toks "a /= b" = [ Token.Ident "a"; Token.Ne; Token.Ident "b" ]);
  Alcotest.(check bool) "dotted ops" true
    (toks "a .and. .not. b"
    = [ Token.Ident "a"; Token.And; Token.Not; Token.Ident "b" ])

let test_lex_strings () =
  let toks s =
    List.map (fun t -> t.Lexer.tok) (Lexer.tokens_of_line 1 s)
  in
  Alcotest.(check bool) "simple" true (toks "'hello'" = [ Token.Str "hello" ]);
  Alcotest.(check bool) "escaped quote" true
    (toks "'it''s'" = [ Token.Str "it's" ])

let test_lex_continuation () =
  let src = "      program t\n      x = 1 +\n     &    2\n      end\n" in
  let toks, _ = Lexer.tokenize src in
  let idents =
    List.filter_map
      (function
        | { Lexer.tok = Token.Int i; _ } -> Some i
        | _ -> None)
      toks
  in
  Alcotest.(check (list int)) "continuation joins" [ 1; 2 ] idents

let test_lex_comments () =
  let src =
    "c a comment line\n      x = 1 ! trailing\n* another comment\n      y = 2\n"
  in
  let toks, _ = Lexer.tokenize src in
  let names =
    List.filter_map
      (function
        | { Lexer.tok = Token.Ident s; _ } -> Some s
        | _ -> None)
      toks
  in
  Alcotest.(check (list string)) "idents" [ "x"; "y" ] names

let test_lex_directives () =
  let src =
    "c$acfd grid(ni, nj)\nc$acfd status(u, v, q:2)\nc$acfd dist(q, 2)\n\
     \      program t\n      end\n"
  in
  let _, dirs = Lexer.tokenize src in
  Alcotest.(check int) "three directives" 3 (List.length dirs);
  Alcotest.(check (list string)) "grids" [ "ni"; "nj" ] (Directive.grids dirs);
  Alcotest.(check bool) "status" true
    (Directive.status_arrays dirs
    = [ ("u", None); ("v", None); ("q", Some 2) ]);
  Alcotest.(check bool) "dist" true
    (Directive.dist_overrides dirs = [ ("q", 2) ])

(* Line forms the lexer scans in place: upper-case and indented
   directives, a generated [c$acfd>] annotation, CRLF endings, a blank
   line of tabs and a carriage return, free-form trailing and leading
   '&' and fixed-form continuations, two-character operators, upper-case
   identifiers, the end of input on the file's last line; and the
   intrinsic-name check, which ignores case too. *)
let test_lex_line_forms () =
  let src =
    "C$ACFD GRID(NI, NJ)\r\n   !$acfd dist(u, 2)  \r\nc$acfd> generated note\n \t\r\n\
     \      X = A**2 &\n  & + B /= C &  \n     &  <= D\n      end\n"
  in
  let toks, dirs = Lexer.tokenize src in
  Alcotest.(check (list string))
    "tokens"
    [ "5 x"; "5 ="; "5 a"; "5 **"; "5 2"; "5 +"; "5 b"; "5 .ne."; "5 c";
      "5 .le."; "5 d"; "5 <newline>"; "8 end"; "8 <newline>"; "8 <eof>" ]
    (List.map
       (fun (t : Lexer.token) ->
         Printf.sprintf "%d %s" t.Lexer.tline (Token.to_string t.Lexer.tok))
       toks);
  Alcotest.(check (list string)) "grid" [ "ni"; "nj" ] (Directive.grids dirs);
  Alcotest.(check bool) "dist on line 2" true
    (List.map (fun d -> d.Directive.dir_line) dirs = [ 1; 2 ]
    && Directive.dist_overrides dirs = [ ("u", 2) ]);
  List.iter
    (fun (name, expected) ->
      Alcotest.(check bool) ("is_intrinsic " ^ name) expected
        (Ast.is_intrinsic name))
    [ ("max", true); ("MAX", true); ("Amin1", true); ("maxx", false);
      ("ma", false); ("u", false) ]

(* ------------------------------------------------------------------ *)
(* Expression parsing                                                  *)
(* ------------------------------------------------------------------ *)

let test_expr_precedence () =
  let open Ast in
  check_expr "mul binds tighter"
    (Binop (Add, Const_int 1, Binop (Mul, Const_int 2, Const_int 3)))
    (parse_e "1 + 2*3");
  check_expr "power right assoc"
    (Binop (Pow, Var "a", Binop (Pow, Const_int 2, Const_int 3)))
    (parse_e "a ** 2 ** 3");
  check_expr "unary minus over product"
    (Unop (Neg, Binop (Mul, Var "a", Var "b")))
    (parse_e "-a * b");
  check_expr "neg literal folded" (Const_int (-5)) (parse_e "-5");
  check_expr "relational"
    (Binop (Lt, Binop (Add, Var "x", Const_int 1), Var "y"))
    (parse_e "x + 1 .lt. y");
  check_expr "logical precedence"
    (Binop (Or, Var "a", Binop (And, Var "b", Var "c")))
    (parse_e "a .or. b .and. c")

let test_expr_refs () =
  let open Ast in
  check_expr "array ref"
    (Ref ("v", [ Binop (Sub, Var "i", Const_int 1); Var "j" ]))
    (parse_e "v(i-1, j)");
  check_expr "nested ref"
    (Ref ("max", [ Var "a"; Ref ("abs", [ Var "b" ]) ]))
    (parse_e "max(a, abs(b))")

(* ------------------------------------------------------------------ *)
(* Statement / program parsing                                         *)
(* ------------------------------------------------------------------ *)

let simple_program =
  {|
      program heat
      parameter (n = 10)
      real u(n, n), unew(n, n)
      integer i, j
      do 10 i = 1, n
        do 10 j = 1, n
          u(i, j) = 0.0
 10   continue
      do iter = 1, 100
        do i = 2, n - 1
          do j = 2, n - 1
            unew(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
          end do
        end do
      end do
      if (u(1,1) .gt. 0.0) then
        call report(u)
      else
        u(1, 1) = 1.0
      end if
      end

      subroutine report(a)
      real a(10, 10)
      write(*,*) a(1, 1)
      return
      end
|}

let test_parse_program () =
  let p = parse simple_program in
  Alcotest.(check int) "two units" 2 (List.length p.Ast.p_units);
  let main = Ast.main_unit p in
  Alcotest.(check string) "main name" "heat" main.Ast.u_name;
  Alcotest.(check int) "consts" 1 (List.length main.Ast.u_consts);
  Alcotest.(check int) "decls" 4 (List.length main.Ast.u_decls)

let test_shared_do_label () =
  let p = parse simple_program in
  let main = Ast.main_unit p in
  (* first statement is the nested shared-label DO *)
  match (List.hd main.Ast.u_body).Ast.s_kind with
  | Ast.Do { do_var = "i"; do_body = [ { s_kind = Ast.Do inner; _ } ]; _ } ->
      (match List.rev inner.Ast.do_body with
      | { s_kind = Ast.Continue; s_label = Some 10; _ } :: _ -> ()
      | _ -> Alcotest.fail "inner body should end with 10 continue")
  | _ -> Alcotest.fail "expected nested DO with shared label"

(* Fortran 77 forbids a DO that redefines an enclosing DO's variable,
   through an IF block too; reusing the variable once the loop has
   closed is fine. *)
let test_do_var_reuse () =
  let nested =
    {|
      program t
      integer i
      do 10 i = 1, 3
        if (i .gt. 1) then
          do 20 i = 1, 2
 20       continue
        endif
 10   continue
      end
|}
  in
  (match parse nested with
  | _ -> Alcotest.fail "a DO reusing its enclosing DO's variable parsed"
  | exception Loc.Error (loc, msg) ->
      Alcotest.(check int) "the inner DO's line" 6 loc.Loc.line;
      Alcotest.(check string) "names the enclosing DO"
        "DO variable i is already the control variable of the enclosing DO \
         at line 4"
        msg);
  ignore
    (parse
       {|
      program t
      integer i
      do i = 1, 3
      enddo
      do 10 i = 1, 2
 10   continue
      end
|})

let test_if_chain () =
  let src =
    {|
      program t
      integer i
      if (i .lt. 0) then
        i = 0
      else if (i .gt. 10) then
        i = 10
      else
        i = i + 1
      end if
      end
|}
  in
  let p = parse src in
  let main = Ast.main_unit p in
  match (List.hd main.Ast.u_body).Ast.s_kind with
  | Ast.If (branches, Some els) ->
      Alcotest.(check int) "two conditional branches" 2 (List.length branches);
      Alcotest.(check int) "else branch size" 1 (List.length els)
  | _ -> Alcotest.fail "expected IF chain"

let test_logical_if_and_goto () =
  let src =
    {|
      program t
      integer i
      i = 0
 100  continue
      i = i + 1
      if (i .lt. 10) goto 100
      end
|}
  in
  let p = parse src in
  let main = Ast.main_unit p in
  Alcotest.(check int) "statements" 4 (List.length main.Ast.u_body);
  match (List.nth main.Ast.u_body 3).Ast.s_kind with
  | Ast.If ([ (_, [ { s_kind = Ast.Goto 100; _ } ]) ], None) -> ()
  | _ -> Alcotest.fail "expected logical IF with goto"

let test_common_and_data () =
  let src =
    {|
      program t
      parameter (n = 4)
      real u(n), v(n)
      common /flow/ u, v
      real eps
      data eps /1.0e-6/
      u(1) = eps
      end
|}
  in
  let p = parse src in
  let main = Ast.main_unit p in
  Alcotest.(check bool) "common" true
    (main.Ast.u_commons = [ ("flow", [ "u"; "v" ]) ]);
  match main.Ast.u_data with
  | [ ("eps", [ Ast.Const_real v ]) ] ->
      Alcotest.(check (float 1e-12)) "data value" 1.0e-6 v
  | _ -> Alcotest.fail "expected data for eps"

let test_data_repeat () =
  let src =
    {|
      program t
      real w(5)
      data w /5*0.0/
      end
|}
  in
  let p = parse src in
  let main = Ast.main_unit p in
  match main.Ast.u_data with
  | [ ("w", values) ] -> Alcotest.(check int) "expanded repeat" 5 (List.length values)
  | _ -> Alcotest.fail "expected data for w"

(* ------------------------------------------------------------------ *)
(* Pretty-printing round-trip                                          *)
(* ------------------------------------------------------------------ *)

(* Strip statement ids and line numbers (the units' too) for structural
   comparison. *)
let rec strip_block b = List.map strip_stmt b

and strip_stmt st =
  let kind =
    match st.Ast.s_kind with
    | Ast.Do d -> Ast.Do { d with do_body = strip_block d.do_body }
    | Ast.If (bs, e) ->
        Ast.If
          ( List.map (fun (c, b) -> (c, strip_block b)) bs,
            Option.map strip_block e )
    | k -> k
  in
  { st with Ast.s_id = 0; s_line = 0; s_kind = kind }

let strip_unit u = { u with Ast.u_body = strip_block u.Ast.u_body; u_line = 0 }

let roundtrip_check src =
  let p1 = parse src in
  let text = Pretty.program p1 in
  let p2 =
    try parse text
    with Loc.Error (loc, msg) ->
      Alcotest.failf "re-parse failed at %a: %s\n--- pretty output ---\n%s"
        Loc.pp loc msg text
  in
  let u1 = List.map strip_unit p1.Ast.p_units in
  let u2 = List.map strip_unit p2.Ast.p_units in
  let show us =
    Format.asprintf "%a" (Fmt.Dump.list Ast.pp_program_unit) us
  in
  if not (String.equal (show u1) (show u2)) then
    Alcotest.failf "round-trip mismatch\n--- pretty output ---\n%s" text

let test_roundtrip_simple () = roundtrip_check simple_program

let test_roundtrip_branches () =
  roundtrip_check
    {|
      program t
      integer i, j
      real x
      i = 0
 100  continue
      i = i + 1
      x = -1.5e-3 * i ** 2
      if (i .lt. 10 .and. x .gt. -5.0) goto 100
      if (i .eq. 10) then
        j = 1
      else if (i .eq. 11) then
        j = 2
      else
        j = 3
      end if
      write(*,*) i, j, x
      end
|}

(* qcheck: random expression round-trip through pretty + parse *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun i -> Ast.Const_int i) (int_range 0 1000);
        map (fun f -> Ast.Const_real (Float.round (f *. 100.) /. 100.))
          (float_bound_inclusive 100.0);
        return (Ast.Var "x");
        return (Ast.Var "y");
        map (fun i -> Ast.Ref ("v", [ Ast.Const_int i; Ast.Var "j" ]))
          (int_range 1 9);
      ]
  in
  let rec node n =
    if n = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          ( 3,
            map3
              (fun op a b -> Ast.Binop (op, a, b))
              (oneofl Ast.[ Add; Sub; Mul; Div ])
              (node (n - 1)) (node (n - 1)) );
          (1, map (fun a -> Ast.Unop (Ast.Neg, a)) (node (n - 1)));
          ( 1,
            map2
              (fun a b -> Ast.Binop (Ast.Lt, a, b))
              (node (n - 1)) (node (n - 1)) );
        ]
  in
  node 4

let arb_expr = QCheck.make ~print:Pretty.expr gen_expr

(* Negation of literals is folded by the parser; apply the same folding to
   the generated tree before comparison. *)
let rec fold_neg e =
  match e with
  | Ast.Unop (op, a) -> (
      match (op, fold_neg a) with
      | Ast.Neg, Ast.Const_int i -> Ast.Const_int (-i)
      | Ast.Neg, Ast.Const_real f -> Ast.Const_real (-.f)
      | op, a -> Ast.Unop (op, a))
  | Ast.Binop (op, a, b) -> Ast.Binop (op, fold_neg a, fold_neg b)
  | Ast.Ref (n, args) -> Ast.Ref (n, List.map fold_neg args)
  | Ast.Local_lo (d, a) -> Ast.Local_lo (d, fold_neg a)
  | Ast.Local_hi (d, a) -> Ast.Local_hi (d, fold_neg a)
  | e -> e

let prop_expr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pretty/parse expression round-trip"
    arb_expr (fun e ->
      let e = fold_neg e in
      expr_eq e (fold_neg (parse_e (Pretty.expr e))))


(* ------------------------------------------------------------------ *)
(* Random whole-program round-trip                                     *)
(* ------------------------------------------------------------------ *)

(* random structured statements: assignments, IFs, DO nests, gotos in
   legal positions *)
let gen_stmt_program =
  let open QCheck.Gen in
  let assign k =
    Printf.sprintf "      x%d = x%d + %d.5 * y" (k mod 3) ((k + 1) mod 3) k
  in
  let rec gen_block depth n =
    if n = 0 then return []
    else
      let* rest = gen_block depth (n - 1) in
      let* choice = int_range 0 (if depth >= 2 then 1 else 3) in
      let* k = int_range 0 9 in
      let stmt =
        match choice with
        | 0 | 1 -> return [ assign k ]
        | 2 ->
            let* inner = gen_block (depth + 1) 2 in
            return
              ((Printf.sprintf "      do i%d = 1, %d" depth (k + 2) :: inner)
              @ [ "      end do" ])
        | _ ->
            let* thn = gen_block (depth + 1) 1 in
            let* els = gen_block (depth + 1) 1 in
            return
              (((Printf.sprintf "      if (x0 .lt. %d.0) then" k :: thn)
               @ ("      else" :: els))
              @ [ "      end if" ])
      in
      let* s = stmt in
      return (s @ rest)
  in
  let* body = gen_block 0 6 in
  return
    (String.concat "\n"
       ([ "      program rt"; "      real x0, x1, x2, y";
          "      integer i0, i1, i2"; "      y = 1.0"; "      x0 = 0.0";
          "      x1 = 0.0"; "      x2 = 0.0" ]
       @ body
       @ [ "      write(*,*) x0, x1, x2"; "      end" ]))

let prop_program_roundtrip =
  QCheck.Test.make ~count:100 ~name:"random program pretty/parse round-trip"
    (QCheck.make ~print:Fun.id gen_stmt_program)
    (fun src ->
      let p1 = parse src in
      let text = Pretty.program p1 in
      let p2 = parse text in
      let show p =
        Format.asprintf "%a"
          (Fmt.Dump.list Ast.pp_program_unit)
          (List.map strip_unit p.Ast.p_units)
      in
      String.equal (show p1) (show p2))

let prop_program_roundtrip_executes_identically =
  QCheck.Test.make ~count:60
    ~name:"round-tripped program executes identically"
    (QCheck.make ~print:Fun.id gen_stmt_program)
    (fun src ->
      let run text =
        let u = Inline.program (parse text) in
        let m = Autocfd_interp.Machine.create u in
        Autocfd_interp.Machine.run m;
        Autocfd_interp.Machine.output m
      in
      run src = run (Pretty.program (parse src)))


(* ------------------------------------------------------------------ *)
(* Robustness: hostile input never escapes the documented exceptions   *)
(* ------------------------------------------------------------------ *)

let gen_garbage =
  QCheck.Gen.(
    let* n = int_range 0 200 in
    let* chars =
      list_size (return n)
        (frequency
           [ (6, oneofl [ 'a'; 'i'; 'x'; '('; ')'; '='; '+'; '-'; '*'; '/';
                          '.'; ','; ' '; '\n'; '1'; '9'; '\''; '&'; '!'; '$';
                          ':'; '<'; '>' ]);
             (1, char) ])
    in
    return (String.init (List.length chars) (List.nth chars)))

let prop_parser_total =
  QCheck.Test.make ~count:500 ~name:"parser is total (errors, not crashes)"
    (QCheck.make ~print:String.escaped gen_garbage)
    (fun src ->
      match Parser.parse src with
      | _ -> true
      | exception Loc.Error _ -> true
      | exception _ -> false)



let test_pretty_comm_forms () =
  let open Ast in
  let x = { xfer_array = "u"; xfer_dim = 0; xfer_dir = Dplus; xfer_depth = 2 } in
  Alcotest.(check string) "exchange"
    "      call acfd_exchange(u[dim 0, dir +, depth 2])"
    (Pretty.stmt (mk_stmt (Comm (Exchange [ x ]))));
  Alcotest.(check string) "allreduce"
    "      call acfd_allreduce_max(errmax)"
    (Pretty.stmt (mk_stmt (Comm (Allreduce_max "errmax"))));
  Alcotest.(check string) "allgather"
    "      call acfd_allgather(u, v)"
    (Pretty.stmt (mk_stmt (Comm (Allgather [ "u"; "v" ]))));
  Alcotest.(check string) "pipeline recv"
    "      call acfd_pipe_recv(1, '+', v:1)"
    (Pretty.stmt
       (mk_stmt (Pipeline_recv { dim = 1; dir = Dplus; arrays = [ ("v", 1) ] })))

let test_pretty_sched_annotations () =
  let open Ast in
  let d =
    { do_var = "i"; do_lo = Const_int 1; do_hi = Const_int 4; do_step = None;
      do_body = [ mk_stmt Continue ]; do_sched = Sched_block 0;
      do_fission = None }
  in
  let text = Pretty.stmt (mk_stmt (Do d)) in
  Alcotest.(check bool) "sched comment" true
    (String.length text > 0 && text.[0] = 'c')


let suite =
  [
    ("lex numbers", `Quick, test_lex_numbers);
    ("lex operators", `Quick, test_lex_operators);
    ("lex strings", `Quick, test_lex_strings);
    ("lex continuation", `Quick, test_lex_continuation);
    ("lex comments", `Quick, test_lex_comments);
    ("lex directives", `Quick, test_lex_directives);
    ("lex line forms", `Quick, test_lex_line_forms);
    ("expr precedence", `Quick, test_expr_precedence);
    ("expr refs", `Quick, test_expr_refs);
    ("parse program", `Quick, test_parse_program);
    ("shared DO label", `Quick, test_shared_do_label);
    ("DO variable reuse", `Quick, test_do_var_reuse);
    ("if chain", `Quick, test_if_chain);
    ("logical if + goto", `Quick, test_logical_if_and_goto);
    ("common + data", `Quick, test_common_and_data);
    ("data repeat", `Quick, test_data_repeat);
    ("pretty comm forms", `Quick, test_pretty_comm_forms);
    ("pretty sched annotations", `Quick, test_pretty_sched_annotations);
    ("round-trip simple", `Quick, test_roundtrip_simple);
    ("round-trip branches", `Quick, test_roundtrip_branches);
    QCheck_alcotest.to_alcotest prop_expr_roundtrip;
    QCheck_alcotest.to_alcotest prop_parser_total;
    QCheck_alcotest.to_alcotest prop_program_roundtrip;
    QCheck_alcotest.to_alcotest prop_program_roundtrip_executes_identically;
  ]

