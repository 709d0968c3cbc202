(** Tests for the analysis library: constant environment, directive
    resolution, the loop-tree definitions 6.1-6.4, the A/R/C/O field-loop
    taxonomy of Fig. 1, stencil/offset extraction, S_LDP dependency pairs
    computed after partitioning, and the mirror-image decomposition. *)

open Autocfd_fortran
module A = Autocfd_analysis
module P = Autocfd_partition

let parse = Parser.parse

let unit_of src = Ast.main_unit (parse src)

(* ------------------------------------------------------------------ *)
(* Env                                                                 *)
(* ------------------------------------------------------------------ *)

let test_env_eval () =
  let env = A.Env.of_alist [ ("n", 10); ("m", 3) ] in
  let e s = A.Env.eval_int env (Parser.parse_expr_string s) in
  Alcotest.(check (option int)) "const" (Some 7) (e "7");
  Alcotest.(check (option int)) "param" (Some 10) (e "n");
  Alcotest.(check (option int)) "arith" (Some 23) (e "2*n + m");
  Alcotest.(check (option int)) "intdiv" (Some 3) (e "n/m");
  Alcotest.(check (option int)) "pow" (Some 1000) (e "n ** m");
  Alcotest.(check (option int)) "max" (Some 10) (e "max(n, m)");
  Alcotest.(check (option int)) "mod" (Some 1) (e "mod(n, m)");
  Alcotest.(check (option int)) "unknown" None (e "n + x");
  Alcotest.(check (option int)) "negative" (Some (-7)) (e "m - n")

let test_env_of_unit_chained () =
  let u =
    unit_of
      {|
      program t
      parameter (n = 8, m = n * 2, k = m + 1)
      end
|}
  in
  let env = A.Env.of_unit u in
  Alcotest.(check (option int)) "chained params" (Some 17)
    (A.Env.lookup env "k")

(* ------------------------------------------------------------------ *)
(* Grid_info                                                           *)
(* ------------------------------------------------------------------ *)

let packed_src =
  {|
c$acfd grid(ni, nj)
c$acfd status(u, q)
c$acfd dist(u, 2)
      program t
      parameter (ni = 12, nj = 8)
      real u(ni, nj), q(ni, nj, 5)
      u(1, 1) = 0.0
      end
|}

let test_grid_info_resolution () =
  let gi = A.Grid_info.of_program (parse packed_src) in
  Alcotest.(check int) "ndims" 2 (A.Grid_info.ndims gi);
  Alcotest.(check bool) "grid extents" true (gi.A.Grid_info.grid = [| 12; 8 |]);
  Alcotest.(check (option int)) "u dim 0" (Some 0)
    (A.Grid_info.grid_dim_of gi "u" 0);
  Alcotest.(check (option int)) "u dim 1" (Some 1)
    (A.Grid_info.grid_dim_of gi "u" 1);
  (* the packed 3rd dimension of q is not a status dimension *)
  Alcotest.(check (option int)) "q packed dim" None
    (A.Grid_info.grid_dim_of gi "q" 2);
  Alcotest.(check int) "dist override" 2 (A.Grid_info.distance gi "u");
  Alcotest.(check int) "dist default" 1 (A.Grid_info.distance gi "q")

let test_grid_info_errors () =
  let bad_missing_grid = "\n      program t\n      end\n" in
  Alcotest.(check bool) "missing grid directive, at the PROGRAM line" true
    (match A.Grid_info.of_program (parse bad_missing_grid) with
    | exception Loc.Error (loc, _) -> loc.Loc.line = 2
    | _ -> false);
  let bad_array =
    "c$acfd grid(n)\nc$acfd status(zz)\n      program t\n\
     \      parameter (n = 4)\n      end\n"
  in
  (* a directive error names the directive's line *)
  let located src =
    match A.Grid_info.of_program (parse src) with
    | _ -> "no error"
    | exception Loc.Error (loc, msg) ->
        Printf.sprintf "line %d: %s" loc.Loc.line msg
  in
  Alcotest.(check string) "undeclared status array"
    "line 2: status array 'zz' is not declared" (located bad_array);
  Alcotest.(check string) "grid extent not a PARAMETER"
    "line 1: grid extent 'm' is not a PARAMETER of the main unit"
    (located
       "c$acfd grid(m)\nc$acfd status(u)\n      program t\n\
        \      real u(4)\n      end\n")

let test_status_explicit_dims () =
  let src =
    {|
c$acfd grid(n)
c$acfd status(w:1)
      program t
      parameter (n = 6)
      real w(n, 4)
      w(1, 1) = 0.0
      end
|}
  in
  let gi = A.Grid_info.of_program (parse src) in
  Alcotest.(check (option int)) "explicit first dim" (Some 0)
    (A.Grid_info.grid_dim_of gi "w" 0);
  Alcotest.(check (option int)) "rest packed" None
    (A.Grid_info.grid_dim_of gi "w" 1)

(* ------------------------------------------------------------------ *)
(* Loops: definitions 6.1-6.4                                          *)
(* ------------------------------------------------------------------ *)

let loops_src =
  {|
      program t
      integer i, j, k, m
      real x
      do i = 1, 10
        do j = 1, 10
          x = 1.0
        end do
        do k = 1, 10
          x = 2.0
        end do
      end do
      do m = 1, 5
        x = 3.0
      end do
      end
|}

let test_loop_tree () =
  let u = unit_of loops_src in
  let t = A.Loops.build u in
  let loops = A.Loops.loops t in
  Alcotest.(check int) "four loops" 4 (List.length loops);
  let by_var v =
    List.find (fun l -> l.A.Loops.lp_var = v) loops
  in
  let li = by_var "i" and lj = by_var "j" and lk = by_var "k"
  and lm = by_var "m" in
  (* Def 6.1 / 6.2 *)
  Alcotest.(check bool) "j inner of i" true
    (A.Loops.is_inner t ~inner:lj.A.Loops.lp_id ~outer:li.A.Loops.lp_id);
  Alcotest.(check bool) "j direct inner of i" true
    (A.Loops.is_direct_inner t ~inner:lj.A.Loops.lp_id ~outer:li.A.Loops.lp_id);
  Alcotest.(check bool) "m not inner of i" false
    (A.Loops.is_inner t ~inner:lm.A.Loops.lp_id ~outer:li.A.Loops.lp_id);
  (* Def 6.3: j and k adjacent; i and m adjacent (both top level) *)
  Alcotest.(check bool) "j || k" true
    (A.Loops.adjacent t lj.A.Loops.lp_id lk.A.Loops.lp_id);
  Alcotest.(check bool) "i || m" true
    (A.Loops.adjacent t li.A.Loops.lp_id lm.A.Loops.lp_id);
  Alcotest.(check bool) "i not || j" false
    (A.Loops.adjacent t li.A.Loops.lp_id lj.A.Loops.lp_id);
  (* Def 6.4: i is not simple (contains adjacent j,k); j, k, m are *)
  Alcotest.(check bool) "i not simple" false (A.Loops.is_simple t li.A.Loops.lp_id);
  Alcotest.(check bool) "j simple" true (A.Loops.is_simple t lj.A.Loops.lp_id);
  Alcotest.(check bool) "m simple" true (A.Loops.is_simple t lm.A.Loops.lp_id);
  Alcotest.(check int) "top level" 2 (List.length (A.Loops.top_level t))

(* Loops inside IF branches are direct inner loops of the nearest
   enclosing DO, in program order; a loop nested in one of them is not. *)
let test_loop_children_through_ifs () =
  let u =
    unit_of
      {|
      program t
      integer i, j, k, it
      real x
      do it = 1, 3
        do i = 1, 4
          x = 1.0
        end do
        if (x .gt. 0.0) then
          do j = 1, 4
            do i = 1, 4
              x = 2.0
            end do
          end do
        else if (x .lt. -1.0) then
          do k = 1, 4
            x = 3.0
          end do
        else
          do i = 1, 2
            x = 4.0
          end do
        end if
        do j = 1, 2
          x = 5.0
        end do
      end do
      end
|}
  in
  let t = A.Loops.build u in
  let lines = List.map (fun id -> (A.Loops.loop t id).A.Loops.lp_line) in
  let by_line n =
    List.find (fun l -> l.A.Loops.lp_line = n) (A.Loops.loops t)
  in
  let time = by_line 5 in
  Alcotest.(check (list int))
    "time loop: children in program order, through IF branches"
    [ 6; 10; 16; 20; 24 ]
    (lines time.A.Loops.lp_children);
  Alcotest.(check (list int)) "loop in a THEN branch: its own child" [ 11 ]
    (lines (by_line 10).A.Loops.lp_children);
  Alcotest.(check (option int))
    "ELSE IF loop's parent" (Some time.A.Loops.lp_id)
    (by_line 16).A.Loops.lp_parent;
  Alcotest.(check (list int)) "top level" [ 5 ]
    (List.map (fun l -> l.A.Loops.lp_line) (A.Loops.top_level t))

(* ------------------------------------------------------------------ *)
(* Field loops: the Fig. 1 taxonomy                                    *)
(* ------------------------------------------------------------------ *)

let fig1_src =
  {|
c$acfd grid(m, n)
c$acfd status(v, w)
      program fig1
      parameter (m = 10, n = 8)
      real v(m, n), w(m, n)
      real x
      integer i, j
c  A-type: assignment only
      do i = 1, m
        do j = 1, n
          v(i, j) = 0.5
        end do
      end do
c  R-type: reference only
      do i = 1, m
        do j = 1, n
          w(i, j) = v(i, j) + 1.0
        end do
      end do
c  C-type: combined
      do i = 2, m - 1
        do j = 1, n
          v(i, j) = v(i-1, j) * 0.5
        end do
      end do
c  O-type: unrelated
      do i = 1, 3
        x = float(i)
      end do
      write(*,*) x
      end
|}

let fig1_summaries () =
  let p = parse fig1_src in
  let gi = A.Grid_info.of_program p in
  (gi, A.Field_loop.analyze_unit gi (Ast.main_unit p))

let test_fig1_classification () =
  let _, summaries = fig1_summaries () in
  Alcotest.(check int) "three field loop heads" 3 (List.length summaries);
  let types =
    List.map (fun s -> A.Field_loop.ltype s "v") summaries
  in
  Alcotest.(check bool) "A then R then C" true
    (types = [ A.Field_loop.A; A.Field_loop.R; A.Field_loop.C ]);
  (* the second loop assigns w *)
  Alcotest.(check bool) "w assigned in loop 2" true
    (A.Field_loop.ltype (List.nth summaries 1) "w" = A.Field_loop.A);
  Alcotest.(check bool) "w O-type in loop 1" true
    (A.Field_loop.ltype (List.hd summaries) "w" = A.Field_loop.O)

let test_offsets_and_self_dependence () =
  let _, summaries = fig1_summaries () in
  let third = List.nth summaries 2 in
  Alcotest.(check bool) "self dependent" true
    (A.Field_loop.self_dependent third "v");
  let first = List.hd summaries in
  Alcotest.(check bool) "A-type not self dependent" false
    (A.Field_loop.self_dependent first "v");
  match List.assoc_opt "v" third.A.Field_loop.fs_uses with
  | Some u ->
      Alcotest.(check (list int)) "read offsets dim 0" [ -1 ]
        u.A.Field_loop.au_read_offsets.(0);
      Alcotest.(check (list int)) "write offsets dim 0" [ 0 ]
        u.A.Field_loop.au_write_offsets.(0)
  | None -> Alcotest.fail "expected use of v"

let test_var_dim_mapping () =
  let _, summaries = fig1_summaries () in
  let s = List.hd summaries in
  Alcotest.(check bool) "i -> dim 0, j -> dim 1" true
    (List.sort compare s.A.Field_loop.fs_var_dims = [ ("i", 0); ("j", 1) ]);
  Alcotest.(check (list int)) "swept dims" [ 0; 1 ]
    s.A.Field_loop.fs_swept_dims

let heads_of src =
  let p = parse src in
  let gi = A.Grid_info.of_program p in
  List.map
    (fun s ->
      ( s.A.Field_loop.fs_loop.A.Loops.lp_line,
        List.sort compare s.A.Field_loop.fs_var_dims ))
    (A.Field_loop.analyze_unit gi (Ast.main_unit p))

let heads_t = Alcotest.(list (pair int (list (pair string int))))

(* A time loop that sweeps nothing is not a head; the sweeping loops
   inside it are, IF branches included, and loops inside a head are not. *)
let test_heads_under_if () =
  Alcotest.check heads_t "heads in program order"
    [ (10, [ ("i", 0); ("j", 1) ]); (16, [ ("j", 1) ]); (20, [ ("i", 0) ]) ]
    (heads_of
       {|
c$acfd grid(m, n)
c$acfd status(v, w)
      program t
      parameter (m = 10, n = 8, nt = 3)
      real v(m, n), w(m, n)
      integer i, j, it
      do it = 1, nt
        if (it .gt. 1) then
          do i = 1, m
            do j = 1, n
              v(i, j) = w(i, j)
            end do
          end do
        else
          do j = 1, n
            w(1, j) = 1.0
          end do
        end if
        do i = 2, m
          w(i, 1) = v(i, 1)
        end do
      end do
      end
|})

(* The outer loop's variable indexes dimension 0 of one array and
   dimension 1 of another: no consistent mapping, so it does not sweep,
   and the inner loop that does becomes the head. *)
let test_heads_below_conflict () =
  Alcotest.check heads_t "inner loop is the head"
    [ (11, [ ("i", 0) ]) ]
    (heads_of
       {|
c$acfd grid(m, n)
c$acfd status(v, w)
      program t
      parameter (m = 8, n = 8)
      real v(m, n), w(m, n)
      integer i, k
      do k = 1, n
        v(k, 1) = 0.0
        w(1, k) = 0.0
        do i = 1, m
          v(i, 2) = v(i, 3) + 1.0
        end do
      end do
      end
|})

(* The field-loop heads of the bundled programs as loaded for a run (SPMD
   input: inlined, fission on): statement ids counted from the unit's
   first statement, with each head's variable -> dimension mapping. *)
let test_bundled_heads_pinned () =
  let read_file path =
    let ic = open_in path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let heat2d =
    List.find Sys.file_exists [ "../examples/heat2d.f"; "examples/heat2d.f" ]
  in
  List.iter
    (fun (name, src, expected) ->
      let t = Autocfd.Driver.load src in
      let u = t.Autocfd.Driver.inlined in
      let base =
        Ast.fold_stmts (fun m st -> min m st.Ast.s_id) max_int u.Ast.u_body
      in
      let got =
        List.map
          (fun s ->
            Printf.sprintf "%d:%s"
              (s.A.Field_loop.fs_loop.A.Loops.lp_id - base)
              (String.concat ","
                 (List.map
                    (fun (v, g) -> Printf.sprintf "%s=%d" v g)
                    s.A.Field_loop.fs_var_dims)))
          (A.Field_loop.analyze_unit t.Autocfd.Driver.gi u)
      in
      Alcotest.(check (list string)) (name ^ ": heads") expected got)
    [
      ( "aerofoil", Autocfd_apps.Aerofoil.source (),
        [ "13:init_i=0,init_j=1,init_k=2"; "19:init_i=0,init_j=1,init_k=2";
          "25:init_i=0,init_k=2"; "36:farbc_j=1,farbc_k=2";
          "47:surfbc_i=0,surfbc_k=2"; "60:spanbc_i=0,spanbc_j=1";
          "71:rhs_i=0,rhs_j=1,rhs_k=2"; "80:rhs_i=0,rhs_j=1,rhs_k=2";
          "89:rhs_i=0,rhs_j=1,rhs_k=2"; "98:advanc_i=0,advanc_j=1,advanc_k=2";
          "105:diverg_i=0,diverg_j=1,diverg_k=2";
          "113:psor_i=0,psor_j=1,psor_k=2";
          "124:correc_i=0,correc_j=1,correc_k=2";
          "134:blayer_i=0,blayer_j=1,blayer_k=2"; "143:wallfn_i=0,wallfn_k=2";
          "150:smooth_i=0,smooth_j=1,smooth_k=2";
          "155:smooth_i=0,smooth_j=1,smooth_k=2";
          "162:spanav_i=0,spanav_j=1,spanav_k=2";
          "167:spanav_i=0,spanav_j=1,spanav_k=2"; "178:farbc_j=1,farbc_k=2";
          "188:forces_i=0,forces_k=2"; "197:cflmin_i=0,cflmin_j=1,cflmin_k=2";
          "205:resid_i=0,resid_j=1,resid_k=2" ] );
      ( "sprayer", Autocfd_apps.Sprayer.source (),
        [ "15:init_i=0,init_j=1"; "21:fansrc_i=0"; "31:inletbc_j=1";
          "41:wallbc_i=0"; "48:eddyvis_i=0,eddyvis_j=1";
          "56:vorttr_i=0,vorttr_j=1"; "63:resid_i=0,resid_j=1";
          "69:vortup_i=0,vortup_j=1"; "75:smoothu_i=0,smoothu_j=1";
          "79:smoothu_i=0,smoothu_j=1"; "85:deficit_i=0,deficit_j=1";
          "89:deficit_i=0,deficit_j=1"; "96:outflow_j=1";
          "102:psisol_i=0,psisol_j=1"; "106:psisol_i=0,psisol_j=1";
          "115:veloc_i=0,veloc_j=1"; "120:swirl_i=0"; "123:swirl_i=0";
          "131:droplet_i=0,droplet_j=1"; "135:droplet_i=0,droplet_j=1";
          "138:droplet_i=0"; "144:settle_i=0,settle_j=1"; "150:fansrc_i=0" ] );
      ( "cavity", Autocfd_apps.Cavity.source (),
        [ "10:init_i=0,init_j=1"; "19:wallbc_i=0"; "23:wallbc_j=1";
          "33:vort_i=0,vort_j=1"; "40:resid_i=0,resid_j=1";
          "46:update_i=0,update_j=1"; "53:psisor_i=0,psisor_j=1" ] );
      ( "heat2d", read_file heat2d,
        [ "5:i=0,j=1"; "9:i=0,j=1"; "15:i=0,j=1" ] );
    ]

let test_fixed_reads_and_reductions () =
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 10, n = 8)
      real v(m, n)
      real errmax, total
      integer i, j
      do j = 1, n
        v(1, j) = v(2, j)
      end do
      errmax = 0.0
      total = 0.0
      do i = 1, m
        do j = 1, n
          errmax = max(errmax, abs(v(i, j)))
          total = total + v(i, j)
        end do
      end do
      write(*,*) errmax, total
      end
|}
  in
  let p = parse src in
  let gi = A.Grid_info.of_program p in
  let summaries = A.Field_loop.analyze_unit gi (Ast.main_unit p) in
  Alcotest.(check int) "two heads" 2 (List.length summaries);
  let bc = List.hd summaries in
  (match List.assoc_opt "v" bc.A.Field_loop.fs_uses with
  | Some u ->
      Alcotest.(check bool) "fixed write (0,1)" true
        (List.mem (0, 1) u.A.Field_loop.au_fixed_writes);
      Alcotest.(check bool) "fixed read (0,2)" true
        (List.mem (0, 2) u.A.Field_loop.au_fixed_reads)
  | None -> Alcotest.fail "v use");
  let red = List.nth summaries 1 in
  let ops =
    List.map (fun r -> (r.A.Field_loop.red_var, r.A.Field_loop.red_op))
      red.A.Field_loop.fs_reductions
  in
  Alcotest.(check bool) "max and sum reductions" true
    (List.mem ("errmax", `Max) ops && List.mem ("total", `Sum) ops)

let test_hazard_dims () =
  (* writing plane jf+1 while reading plane jf that the loop also writes *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 10, n = 8, jf = 4)
      real v(m, n)
      integer i
      do i = 2, m - 1
        v(i, jf) = v(i, jf) + 1.0
        v(i, jf+1) = v(i, jf) * 0.5
      end do
      end
|}
  in
  let p = parse src in
  let gi = A.Grid_info.of_program p in
  let summaries = A.Field_loop.analyze_unit gi (Ast.main_unit p) in
  let s = List.hd summaries in
  Alcotest.(check (list int)) "hazard on dim 1" [ 1 ]
    s.A.Field_loop.fs_hazard_dims;
  (* the safe single-plane self-update has no hazard *)
  let safe =
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 10, n = 8, jf = 4)
      real v(m, n)
      integer i
      do i = 2, m - 1
        v(i, jf) = v(i, jf) + 1.0
      end do
      end
|}
  in
  let p = parse safe in
  let gi = A.Grid_info.of_program p in
  let summaries = A.Field_loop.analyze_unit gi (Ast.main_unit p) in
  Alcotest.(check (list int)) "no hazard" []
    (List.hd summaries).A.Field_loop.fs_hazard_dims

(* ------------------------------------------------------------------ *)
(* S_LDP: analysis after partitioning                                  *)
(* ------------------------------------------------------------------ *)

let jacobi_src =
  {|
c$acfd grid(m, n)
c$acfd status(u, unew)
      program t
      parameter (m = 12, n = 10)
      real u(m, n), unew(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = 1.0
        end do
      end do
      do it = 1, 5
        do i = 2, m - 1
          do j = 2, n - 1
            unew(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = unew(i, j)
          end do
        end do
      end do
      end
|}

let sldp_of src parts =
  let p = parse src in
  let gi = A.Grid_info.of_program p in
  let u = Inline.program p in
  let loops = A.Loops.build u in
  let summaries = A.Field_loop.analyze_unit gi u in
  let topo = P.Topology.create ~grid:gi.A.Grid_info.grid ~parts in
  A.Sldp.compute gi topo loops summaries

let test_sldp_jacobi () =
  let sldp = sldp_of jacobi_src [| 2; 1 |] in
  (* pairs: init -> jacobi (forward), copy -> jacobi (backward);
     unew is read at offset 0 only: no pair for it *)
  Alcotest.(check int) "two pairs" 2 (List.length sldp.A.Sldp.pairs);
  let kinds =
    List.map (fun p -> p.A.Sldp.dp_kind) sldp.A.Sldp.pairs
  in
  Alcotest.(check bool) "forward + backward" true
    (List.exists (fun k -> k = A.Sldp.Forward) kinds
    && List.exists (function A.Sldp.Backward _ -> true | _ -> false) kinds);
  List.iter
    (fun p ->
      Alcotest.(check (list string)) "carries only u" [ "u" ]
        (List.map fst p.A.Sldp.dp_arrays))
    sldp.A.Sldp.pairs

let test_sldp_partition_awareness () =
  (* a loop whose reads cross only dimension 0 generates no pairs when
     only dimension 1 is cut: this is "analysis after partitioning" *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 12, n = 10)
      real u(m, n), w(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = 1.0
        end do
      end do
      do it = 1, 3
        do i = 2, m - 1
          do j = 1, n
            w(i, j) = u(i-1, j) + u(i+1, j)
          end do
        end do
        do i = 1, m
          do j = 1, n
            u(i, j) = w(i, j)
          end do
        end do
      end do
      end
|}
  in
  let cut0 = sldp_of src [| 2; 1 |] in
  let cut1 = sldp_of src [| 1; 2 |] in
  Alcotest.(check bool) "pairs when dim 0 cut" true
    (List.length cut0.A.Sldp.pairs > 0);
  Alcotest.(check int) "no pairs when only dim 1 cut" 0
    (List.length cut1.A.Sldp.pairs);
  Alcotest.(check int) "count_before respects dims" 0
    (A.Sldp.count_before cut1)

let test_sldp_self_pair () =
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 12, n = 10)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = 1.0
        end do
      end do
      do it = 1, 3
        do i = 2, m - 1
          do j = 2, n - 1
            v(i, j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
      end do
      end
|}
  in
  let sldp = sldp_of src [| 2; 2 |] in
  let selfs = A.Sldp.self_pairs sldp in
  Alcotest.(check int) "one self pair" 1 (List.length selfs);
  (* plus the wrap-around backward pair feeding the next sweep's halo *)
  Alcotest.(check bool) "backward self exchange pair exists" true
    (List.exists
       (fun p ->
         (match p.A.Sldp.dp_kind with A.Sldp.Backward _ -> true | _ -> false)
         && p.A.Sldp.dp_assign == p.A.Sldp.dp_ref)
       sldp.A.Sldp.pairs)

let test_eliminate_redundant () =
  (* two writers before one reader: only the later writer's pair remains *)
  let src =
    {|
c$acfd grid(m)
c$acfd status(u, w)
      program t
      parameter (m = 16)
      real u(m), w(m)
      integer i
      do i = 1, m
        u(i) = 1.0
      end do
      do i = 2, m - 1
        u(i) = u(i) + 1.0
      end do
      do i = 2, m - 1
        w(i) = u(i-1) + u(i+1)
      end do
      end
|}
  in
  let sldp = sldp_of src [| 2 |] in
  Alcotest.(check int) "two pairs before" 2 (List.length sldp.A.Sldp.pairs);
  let surviving = A.Sldp.eliminate_redundant sldp in
  Alcotest.(check int) "one pair survives" 1 (List.length surviving);
  (* the survivor is the second (nearest) writer *)
  let p = List.hd surviving in
  Alcotest.(check bool) "nearest writer kept" true
    (p.A.Sldp.dp_assign.A.Field_loop.fs_loop.A.Loops.lp_enter
    > (List.hd sldp.A.Sldp.summaries).A.Field_loop.fs_loop.A.Loops.lp_enter)

let test_dep_info_depth_and_dirs () =
  let src =
    {|
c$acfd grid(m)
c$acfd status(u, w)
      program t
      parameter (m = 16)
      real u(m), w(m)
      integer i
      do i = 1, m
        u(i) = 1.0
      end do
      do i = 3, m - 2
        w(i) = u(i-2) + u(i+1)
      end do
      end
|}
  in
  let sldp = sldp_of src [| 2 |] in
  match sldp.A.Sldp.pairs with
  | [ p ] -> (
      match List.assoc_opt "u" p.A.Sldp.dp_arrays with
      | Some info ->
          Alcotest.(check int) "depth 2" 2 info.A.Sldp.di_depth.(0);
          Alcotest.(check bool) "minus dir" true info.A.Sldp.di_minus.(0);
          Alcotest.(check bool) "plus dir" true info.A.Sldp.di_plus.(0)
      | None -> Alcotest.fail "expected u info")
  | ps -> Alcotest.failf "expected 1 pair, got %d" (List.length ps)

(* ------------------------------------------------------------------ *)
(* Mirror-image decomposition                                          *)
(* ------------------------------------------------------------------ *)

let strategy_of src parts =
  let p = parse src in
  let gi = A.Grid_info.of_program p in
  let u = Inline.program p in
  let summaries = A.Field_loop.analyze_unit gi u in
  let topo = P.Topology.create ~grid:gi.A.Grid_info.grid ~parts in
  let env = A.Env.of_unit u in
  let cut g = P.Topology.is_cut topo g in
  List.map
    (fun s -> A.Mirror.strategy ~ndims:(A.Grid_info.ndims gi) env ~cut s)
    summaries

let gs_loop body =
  Printf.sprintf
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 12, n = 10)
      real v(m, n)
      integer i, j
      do i = 2, m - 1
        do j = 2, n - 1
          %s
        end do
      end do
      end
|}
    body

let test_strategy_jacobi_block () =
  (* reading another array: plain block parallelism *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v, w)
      program t
      parameter (m = 12, n = 10)
      real v(m, n), w(m, n)
      integer i, j
      do i = 2, m - 1
        do j = 2, n - 1
          w(i, j) = v(i-1, j) + v(i+1, j)
        end do
      end do
      end
|}
  in
  Alcotest.(check bool) "block" true
    (strategy_of src [| 2; 2 |] = [ A.Mirror.Block ])

let test_strategy_gauss_seidel_pipeline () =
  let src = gs_loop "v(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))" in
  (match strategy_of src [| 2; 2 |] with
  | [ A.Mirror.Pipeline dims ] ->
      Alcotest.(check bool) "pipeline both dims" true
        (List.map fst dims = [ 0; 1 ])
  | _ -> Alcotest.fail "expected pipeline");
  (* uncut dims need no pipelining *)
  match strategy_of src [| 2; 1 |] with
  | [ A.Mirror.Pipeline [ (0, Ast.Dplus) ] ] -> ()
  | _ -> Alcotest.fail "expected pipeline on dim 0 only"

let test_strategy_anti_only_block () =
  (* reads only upward: pure mirror image, the pre-sweep exchange
     suffices, no pipeline *)
  let src = gs_loop "v(i,j) = 0.5 * (v(i+1,j) + v(i,j+1))" in
  Alcotest.(check bool) "anti-only is block" true
    (strategy_of src [| 2; 2 |] = [ A.Mirror.Block ])

let test_strategy_descending_sweep () =
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 12, n = 10)
      real v(m, n)
      integer i, j
      do i = m - 1, 2, -1
        do j = 2, n - 1
          v(i,j) = 0.5 * (v(i+1,j) + v(i,j-1))
        end do
      end do
      end
|}
  in
  (* descending in i: reading i+1 is the flow direction -> pipeline Dminus *)
  match strategy_of src [| 2; 1 |] with
  | [ A.Mirror.Pipeline [ (0, Ast.Dminus) ] ] -> ()
  | _ -> Alcotest.fail "expected descending pipeline"

let test_strategy_diagonal_illegal () =
  (* u(i+1, j-1) is flow (j dominates) but crosses i-blocks upward:
     coarse pipelining is illegal when i is cut -> Serial *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 12, n = 10)
      real v(m, n)
      integer i, j
      do j = 2, n - 1
        do i = 2, m - 1
          v(i,j) = 0.5 * (v(i, j-1) + v(i+1, j-1))
        end do
      end do
      end
|}
  in
  Alcotest.(check bool) "serial when i cut" true
    (strategy_of src [| 2; 1 |] = [ A.Mirror.Serial ]);
  (* legal when only j is cut (all j components of flow vectors <= 0) *)
  match strategy_of src [| 1; 2 |] with
  | [ A.Mirror.Pipeline [ (1, Ast.Dplus) ] ] -> ()
  | _ -> Alcotest.fail "expected pipeline on dim 1"

let test_decompose_vectors () =
  let src = gs_loop "v(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))" in
  let p = parse src in
  let gi = A.Grid_info.of_program p in
  let u = Inline.program p in
  let summaries = A.Field_loop.analyze_unit gi u in
  let env = A.Env.of_unit u in
  match A.Mirror.decompose ~ndims:2 env (List.hd summaries) "v" with
  | Some de ->
      let flow, anti =
        List.partition (fun (_, c) -> c = A.Mirror.Flow) de.A.Mirror.de_vectors
      in
      Alcotest.(check int) "two flow vectors" 2 (List.length flow);
      Alcotest.(check int) "two anti vectors" 2 (List.length anti);
      Alcotest.(check bool) "flow are -1 offsets" true
        (List.for_all
           (fun (v, _) -> Array.fold_left ( + ) 0 v = -1)
           flow)
  | None -> Alcotest.fail "expected decomposition"

let test_serial_directive () =
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v, w)
      program t
      parameter (m = 12, n = 10)
      real v(m, n), w(m, n)
      integer i, j
c$acfd serial
      do i = 2, m - 1
        do j = 2, n - 1
          w(i, j) = v(i-1, j)
        end do
      end do
      end
|}
  in
  Alcotest.(check bool) "forced serial" true
    (strategy_of src [| 2; 2 |] = [ A.Mirror.Serial ])


(* ------------------------------------------------------------------ *)
(* Loop skewing (paper's wavefront alternative for Fig. 3(a))          *)
(* ------------------------------------------------------------------ *)

let run_outputs src =
  let u = Autocfd_fortran.Inline.program (Autocfd_fortran.Parser.parse src) in
  let m = Autocfd_interp.Machine.create u in
  Autocfd_interp.Machine.run m;
  (Autocfd_interp.Machine.output m, m)

let skew_and_run src expected_count =
  let p = Autocfd_fortran.Parser.parse src in
  let gi = A.Grid_info.of_program p in
  let u = Autocfd_fortran.Inline.program p in
  let u', n = Autocfd_codegen.Skew.transform_unit gi u in
  Alcotest.(check int) "nests skewed" expected_count n;
  let m = Autocfd_interp.Machine.create u' in
  Autocfd_interp.Machine.run m;
  (Autocfd_interp.Machine.output m, m)

let gs_src =
  {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 13, n = 11)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i * 2 + j)
        end do
      end do
      do it = 1, 4
        do i = 2, m - 1
          do j = 2, n - 1
            v(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
      end do
      write(*,*) v(m/2, n/2), v(2, 2), v(m-1, n-1)
      end
|}

let test_skew_gauss_seidel_equivalent () =
  let out0, m0 = run_outputs gs_src in
  let out1, m1 = skew_and_run gs_src 1 in
  Alcotest.(check (list string)) "same printed values" out0 out1;
  let v0 = Autocfd_interp.Machine.array m0 "v" in
  let v1 = Autocfd_interp.Machine.array m1 "v" in
  Alcotest.(check (float 0.0)) "bit-identical field" 0.0
    (Autocfd_interp.Value.max_abs_diff v0 v1)

let test_skew_recurrence_equivalent () =
  (* Fig. 3(a): one-directional recurrence *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 12, n = 9)
      real v(m, n)
      integer i, j
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i + j)
        end do
      end do
      do i = 2, m
        do j = 2, n
          v(i, j) = 0.5 * (v(i-1, j) + v(i, j-1))
        end do
      end do
      write(*,*) v(m, n)
      end
|}
  in
  let out0, _ = run_outputs src in
  let out1, _ = skew_and_run src 1 in
  Alcotest.(check (list string)) "same result" out0 out1

let test_skew_rejects_illegal_diagonal () =
  (* read of v(i+1, j-1): distance (1,-1) becomes (0,-1) after skewing —
     illegal, the nest must be left alone *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 12, n = 9)
      real v(m, n)
      integer i, j
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i * j)
        end do
      end do
      do i = 2, m - 1
        do j = 2, n - 1
          v(i, j) = 0.5 * (v(i, j-1) + v(i+1, j-1))
        end do
      end do
      write(*,*) v(2, 2)
      end
|}
  in
  let _, n =
    let p = Autocfd_fortran.Parser.parse src in
    let gi = A.Grid_info.of_program p in
    Autocfd_codegen.Skew.transform_unit gi
      (Autocfd_fortran.Inline.program p)
  in
  Alcotest.(check int) "illegal nest not skewed" 0 n

let test_skew_rejects_non_self_dependent () =
  (* a Jacobi loop has nothing to skew *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v, w)
      program t
      parameter (m = 12, n = 9)
      real v(m, n), w(m, n)
      integer i, j
      do i = 1, m
        do j = 1, n
          v(i, j) = 1.0
          w(i, j) = 0.0
        end do
      end do
      do i = 2, m - 1
        do j = 2, n - 1
          w(i, j) = v(i-1, j) + v(i, j-1)
        end do
      end do
      end
|}
  in
  let _, n =
    let p = Autocfd_fortran.Parser.parse src in
    let gi = A.Grid_info.of_program p in
    Autocfd_codegen.Skew.transform_unit gi
      (Autocfd_fortran.Inline.program p)
  in
  Alcotest.(check int) "jacobi not skewed" 0 n

let test_skew_output_shape () =
  (* the skewed source contains the diagonal loop over acfdsk *)
  let p = Autocfd_fortran.Parser.parse gs_src in
  let gi = A.Grid_info.of_program p in
  let u, _ =
    Autocfd_codegen.Skew.transform_unit gi (Autocfd_fortran.Inline.program p)
  in
  let text = Autocfd_fortran.Pretty.unit_ u in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "diagonal loop" true (contains "do acfdsk = ");
  Alcotest.(check bool) "substituted index" true (contains "v(acfdsk-j");
  (* and it still re-parses *)
  match Autocfd_fortran.Parser.parse text with
  | _ -> ()
  | exception Autocfd_fortran.Loc.Error (loc, msg) ->
      Alcotest.failf "skewed source does not re-parse at %a: %s"
        Autocfd_fortran.Loc.pp loc msg


let suite =
  [
    ("env eval", `Quick, test_env_eval);
    ("env chained params", `Quick, test_env_of_unit_chained);
    ("grid_info resolution", `Quick, test_grid_info_resolution);
    ("grid_info errors", `Quick, test_grid_info_errors);
    ("status explicit dims", `Quick, test_status_explicit_dims);
    ("loop tree defs 6.1-6.4", `Quick, test_loop_tree);
    ( "loop children through IF branches", `Quick,
      test_loop_children_through_ifs );
    ("fig1 A/R/C/O", `Quick, test_fig1_classification);
    ("offsets + self dependence", `Quick, test_offsets_and_self_dependence);
    ("var-dim mapping", `Quick, test_var_dim_mapping);
    ("field-loop heads under IF", `Quick, test_heads_under_if);
    ("field-loop heads below a conflict", `Quick, test_heads_below_conflict);
    ("field-loop heads pinned", `Quick, test_bundled_heads_pinned);
    ("fixed reads + reductions", `Quick, test_fixed_reads_and_reductions);
    ("hazard dims", `Quick, test_hazard_dims);
    ("sldp jacobi", `Quick, test_sldp_jacobi);
    ("sldp partition awareness", `Quick, test_sldp_partition_awareness);
    ("sldp self pair", `Quick, test_sldp_self_pair);
    ("eliminate redundant", `Quick, test_eliminate_redundant);
    ("dep info depth/dirs", `Quick, test_dep_info_depth_and_dirs);
    ("strategy: jacobi block", `Quick, test_strategy_jacobi_block);
    ("strategy: gauss-seidel pipeline", `Quick, test_strategy_gauss_seidel_pipeline);
    ("strategy: anti-only block", `Quick, test_strategy_anti_only_block);
    ("strategy: descending sweep", `Quick, test_strategy_descending_sweep);
    ("strategy: diagonal illegal", `Quick, test_strategy_diagonal_illegal);
    ("decompose vectors", `Quick, test_decompose_vectors);
    ("serial directive", `Quick, test_serial_directive);
    ("skew: gauss-seidel equivalent", `Quick, test_skew_gauss_seidel_equivalent);
    ("skew: recurrence equivalent", `Quick, test_skew_recurrence_equivalent);
    ("skew: rejects illegal diagonal", `Quick, test_skew_rejects_illegal_diagonal);
    ("skew: rejects non-self-dependent", `Quick, test_skew_rejects_non_self_dependent);
    ("skew: output shape", `Quick, test_skew_output_shape);
  ]
