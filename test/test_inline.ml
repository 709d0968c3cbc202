(** Tests for whole-program inlining (§5.3 substrate): parameter
    substitution, COMMON positional matching, label renumbering, RETURN
    handling, and error cases. *)

open Autocfd_fortran

let parse = Parser.parse

let inline src = Inline.program (parse src)

let run_inlined src ?(input = []) () =
  let u = inline src in
  let m = Autocfd_interp.Machine.create ~input u in
  Autocfd_interp.Machine.run m;
  m

let test_simple_call () =
  let m =
    run_inlined
      {|
      program t
      real x
      common /c/ x
      x = 1.0
      call bump
      call bump
      write(*,*) x
      end

      subroutine bump
      real x
      common /c/ x
      x = x + 1.0
      return
      end
|}
      ()
  in
  Alcotest.(check (list string)) "x bumped twice" [ "3" ]
    (Autocfd_interp.Machine.output m)

let test_no_calls_remain () =
  let u =
    inline
      {|
      program t
      real x
      common /c/ x
      call a
      end
      subroutine a
      real x
      common /c/ x
      x = 1.0
      call b
      return
      end
      subroutine b
      real x
      common /c/ x
      x = x + 1.0
      return
      end
|}
  in
  Ast.iter_stmts
    (fun st ->
      match st.Ast.s_kind with
      | Ast.Call (n, _) -> Alcotest.failf "CALL %s remains after inlining" n
      | _ -> ())
    u.Ast.u_body

let test_dummy_scalar_substitution () =
  let m =
    run_inlined
      {|
      program t
      real y
      y = 0.0
      call setval(y, 2.5)
      write(*,*) y
      end

      subroutine setval(out, v)
      real out, v
      out = v * 2.0
      return
      end
|}
      ()
  in
  Alcotest.(check (list string)) "out param written" [ "5" ]
    (Autocfd_interp.Machine.output m)

let test_array_dummy () =
  let m =
    run_inlined
      {|
      program t
      parameter (n = 4)
      real a(n)
      integer i
      do i = 1, n
        a(i) = 0.0
      end do
      call fill(a, 3.0)
      write(*,*) a(1), a(4)
      end

      subroutine fill(arr, v)
      parameter (n = 4)
      real arr(n), v
      integer i
      do i = 1, n
        arr(i) = v
      end do
      return
      end
|}
      ()
  in
  Alcotest.(check (list string)) "array filled" [ "3 3" ]
    (Autocfd_interp.Machine.output m)

let test_common_positional_renaming () =
  (* the callee names the COMMON members differently: storage must still
     be shared positionally *)
  let m =
    run_inlined
      {|
      program t
      real p, q
      common /blk/ p, q
      p = 1.0
      q = 2.0
      call swapped
      write(*,*) p, q
      end

      subroutine swapped
      real alpha, beta
      common /blk/ alpha, beta
      alpha = alpha + 10.0
      beta = beta + 20.0
      return
      end
|}
      ()
  in
  Alcotest.(check (list string)) "positional common" [ "11 22" ]
    (Autocfd_interp.Machine.output m)

let test_local_renaming_no_capture () =
  (* both units use a local named tmp: they must not collide *)
  let m =
    run_inlined
      {|
      program t
      real tmp, r
      common /c/ r
      tmp = 5.0
      call f
      write(*,*) tmp, r
      end

      subroutine f
      real tmp, r
      common /c/ r
      tmp = 100.0
      r = tmp
      return
      end
|}
      ()
  in
  Alcotest.(check (list string)) "no capture" [ "5 100" ]
    (Autocfd_interp.Machine.output m)

let test_label_renumbering () =
  (* both units use label 10: inlining must keep the loops separate *)
  let m =
    run_inlined
      {|
      program t
      real s
      common /c/ s
      integer i
      s = 0.0
      do 10 i = 1, 3
        s = s + 1.0
 10   continue
      call g
      write(*,*) s
      end

      subroutine g
      real s
      common /c/ s
      integer i
      do 10 i = 1, 4
        s = s + 10.0
 10   continue
      return
      end
|}
      ()
  in
  Alcotest.(check (list string)) "labels independent" [ "43" ]
    (Autocfd_interp.Machine.output m)

let test_early_return () =
  let m =
    run_inlined
      {|
      program t
      real x
      common /c/ x
      x = 1.0
      call maybe
      write(*,*) x
      end

      subroutine maybe
      real x
      common /c/ x
      if (x .gt. 0.0) return
      x = -99.0
      return
      end
|}
      ()
  in
  Alcotest.(check (list string)) "early return taken" [ "1" ]
    (Autocfd_interp.Machine.output m)

(* an inlining error names the line of the CALL it comes from *)
let located_error src =
  match inline src with
  | _ -> "no error"
  | exception Loc.Error (loc, msg) -> Printf.sprintf "line %d: %s" loc.Loc.line msg

let test_recursion_rejected () =
  Alcotest.(check string) "recursion detected at the closing CALL"
    "line 10: inline: recursion through 'a'"
    (located_error
       {|
      program t
      call a
      end
      subroutine a
      call b
      return
      end
      subroutine b
      call a
      return
      end
|})

let test_missing_subroutine () =
  Alcotest.(check string) "missing callee at its CALL"
    "line 2: inline: subroutine 'nope' not found"
    (located_error "      program t\n      call nope\n      end\n");
  Alcotest.(check string) "argument count at its CALL"
    "line 3: inline: call to 'one' passes 2 args for 1 parameters"
    (located_error
       {|
      program t
      call one(1.0, 2.0)
      end
      subroutine one(x)
      real x
      return
      end
|})

let test_expression_argument () =
  let m =
    run_inlined
      {|
      program t
      real y
      y = 0.0
      call addto(y, 2.0 + 3.0)
      write(*,*) y
      end

      subroutine addto(out, v)
      real out, v
      out = out + v
      return
      end
|}
      ()
  in
  Alcotest.(check (list string)) "expression arg" [ "5" ]
    (Autocfd_interp.Machine.output m)

let test_assign_to_expression_dummy_rejected () =
  Alcotest.(check string) "cannot assign an expression dummy, at its CALL"
    "line 3: inline: dummy 'v' is assigned but bound to an expression"
    (located_error
       {|
      program t
      call bad(1.0 + 2.0)
      end
      subroutine bad(v)
      real v
      v = 0.0
      return
      end
|})

let suite =
  [
    ("simple call", `Quick, test_simple_call);
    ("no calls remain", `Quick, test_no_calls_remain);
    ("dummy scalar substitution", `Quick, test_dummy_scalar_substitution);
    ("array dummy", `Quick, test_array_dummy);
    ("common positional renaming", `Quick, test_common_positional_renaming);
    ("local renaming no capture", `Quick, test_local_renaming_no_capture);
    ("label renumbering", `Quick, test_label_renumbering);
    ("early return", `Quick, test_early_return);
    ("recursion rejected", `Quick, test_recursion_rejected);
    ("missing subroutine", `Quick, test_missing_subroutine);
    ("expression argument", `Quick, test_expression_argument);
    ("assign to expression dummy", `Quick, test_assign_to_expression_dummy_rejected);
  ]
