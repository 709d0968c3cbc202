(** Tests for the top-level driver and the experiments harness. *)

module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module E = Autocfd.Experiments
module S = Autocfd_syncopt

let heat =
  {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program heat
      parameter (m = 20, n = 10)
      real u(m, n), w(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i)
        end do
      end do
      do it = 1, 4
        do i = 2, m - 1
          do j = 2, n - 1
            w(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = w(i, j)
          end do
        end do
      end do
      write(*,*) u(3, 3)
      end
|}

let test_load () =
  let t = D.load heat in
  Alcotest.(check bool) "grid resolved" true (t.D.gi.Autocfd_analysis.Grid_info.grid = [| 20; 10 |]);
  Alcotest.(check string) "inlined main kept" "heat" t.D.inlined.Autocfd_fortran.Ast.u_name

let test_auto_parts () =
  let t = D.load heat in
  (* grid 20x10: the long dimension should be cut for 2 procs *)
  Alcotest.(check bool) "auto 2" true (D.auto_parts t ~nprocs:2 = [| 2; 1 |]);
  let p4 = D.auto_parts t ~nprocs:4 in
  Alcotest.(check int) "auto 4 multiplies out" 4 (p4.(0) * p4.(1))

let test_plan_components () =
  let t = D.load heat in
  let plan = D.plan ~spec:(parts_spec [| 2; 2 |]) t in
  Alcotest.(check bool) "summaries found" true (plan.D.summaries <> []);
  Alcotest.(check bool) "pairs found" true (plan.D.sldp.Autocfd_analysis.Sldp.pairs <> []);
  Alcotest.(check bool) "groups placed" true (plan.D.opt.S.Optimizer.groups <> []);
  Alcotest.(check bool) "after <= before" true
    (plan.D.opt.S.Optimizer.after <= plan.D.opt.S.Optimizer.before)

let test_spmd_source_header () =
  let t = D.load heat in
  let plan = D.plan ~spec:(parts_spec [| 2; 1 |]) t in
  let src = D.spmd_source plan in
  Alcotest.(check bool) "header mentions Auto-CFD" true
    (String.length src > 30 && String.sub src 0 2 = "c ")

let test_run_sequential_flops () =
  let t = D.load heat in
  let seq = D.run_seq t in
  Alcotest.(check bool) "flops counted" true (seq.D.sq_flops > 100.0);
  Alcotest.(check bool) "arrays captured" true
    (List.mem_assoc "u" seq.D.sq_arrays && List.mem_assoc "w" seq.D.sq_arrays)

let test_run_parallel_with_timing () =
  let t = D.load heat in
  let plan = D.plan ~spec:(parts_spec [| 2; 1 |]) t in
  let par =
    D.run
      ~spec:
        Autocfd.Runspec.(
          default
          |> with_machine (Some Autocfd_perfmodel.Model.pentium_cluster))
      plan
  in
  Alcotest.(check bool) "virtual time advanced" true
    (par.Autocfd_interp.Spmd.stats.Autocfd_mpsim.Sim.elapsed > 0.0);
  Alcotest.(check bool) "flops per rank recorded" true
    (Array.for_all (fun f -> f > 0.0) par.Autocfd_interp.Spmd.flops_per_rank)

let test_table1_rows () =
  let rows = E.table1 () in
  Alcotest.(check int) "nine rows like the paper" 9 (List.length rows);
  List.iter
    (fun r ->
      let before = E.ji "before" r and after = E.ji "after" r in
      Alcotest.(check bool) "after < before" true (after < before);
      let pct = float_of_int (before - after) /. float_of_int before in
      Alcotest.(check bool) "reduction at least 80%" true (pct >= 0.80))
    rows

let test_auto_parts_by_model () =
  let t = D.load heat in
  let p = D.auto_parts_by_model t ~nprocs:4 in
  Alcotest.(check int) "multiplies out" 4 (p.(0) * p.(1));
  (* the model choice is never worse than the volume choice *)
  let module M = Autocfd_perfmodel.Model in
  let time parts =
    let plan = D.plan ~spec:(parts_spec parts) t in
    (M.predict_parallel M.pentium_cluster ~gi:t.D.gi ~topo:plan.D.topo
       plan.D.spmd)
      .M.time
  in
  Alcotest.(check bool) "model <= volume" true
    (time p <= time (D.auto_parts t ~nprocs:4) +. 1e-9)

let test_report_markdown () =
  let t = D.load heat in
  let plan = D.plan ~spec:(parts_spec [| 2; 2 |]) t in
  let text = Autocfd.Report.markdown plan in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("report contains " ^ needle) true (contains needle))
    [ "# Auto-CFD pre-compilation report"; "## Field loops";
      "## Dependence pairs (S_LDP)"; "## Synchronization optimization";
      "block-parallel"; "speedup";
      "## Measured execution (simulated cluster)";
      "### Per-rank time breakdown"; "### Per-sync-point traffic" ];
  Alcotest.(check bool) "census sums to heads" true
    (List.fold_left (fun a (_, v) -> a + v) 0 (Autocfd.Report.loop_census plan)
    = List.length plan.D.strategies)

let test_renderers_nonempty () =
  let t1 = E.render_table1 (E.table1 ()) in
  Alcotest.(check bool) "table text" true (String.length t1 > 200)


let test_load_diagnostics () =
  (* missing directives and syntax errors surface as documented errors *)
  Alcotest.(check bool) "missing grid directive" true
    (match D.load "      program t\n      end\n" with
    | exception Autocfd_fortran.Loc.Error (loc, msg) ->
        loc.Autocfd_fortran.Loc.line = 1 && String.length msg > 0
    | _ -> false);
  Alcotest.(check bool) "syntax error carries location" true
    (match D.load "c$acfd grid(n)\n      program t\n      x = (1 +\n      end\n" with
    | exception Autocfd_fortran.Loc.Error (loc, _) ->
        loc.Autocfd_fortran.Loc.line > 0
    | exception Failure _ -> true
    | _ -> false)

let test_infeasible_partition () =
  let t = D.load heat in
  Alcotest.(check bool) "too many parts" true
    (match D.plan ~spec:(parts_spec [| 50; 1 |]) t with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    ("load", `Quick, test_load);
    ("auto parts", `Quick, test_auto_parts);
    ("plan components", `Quick, test_plan_components);
    ("spmd source header", `Quick, test_spmd_source_header);
    ("run sequential flops", `Quick, test_run_sequential_flops);
    ("run parallel timing", `Quick, test_run_parallel_with_timing);
    ("auto parts by model", `Quick, test_auto_parts_by_model);
    ("report markdown", `Quick, test_report_markdown);
    ("load diagnostics", `Quick, test_load_diagnostics);
    ("infeasible partition", `Quick, test_infeasible_partition);
    ("table 1 rows", `Slow, test_table1_rows);
    ("renderers", `Slow, test_renderers_nonempty);
  ]
