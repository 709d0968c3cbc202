(** Case study 1: the aerofoil simulation (paper §6, Tables 1 and 2).

    Run with: dune exec examples/aerofoil.exe

    Analyzes the bundled 3-D aerofoil program at full grid size
    (99 x 41 x 13), showing the mirror-image pipelined pressure solve and
    the paper's partition-dependent synchronization census; then executes
    a reduced-size instance on 6 simulated ranks (3 x 2 x 1, the paper's
    best 6-processor partition) and validates it against the sequential
    run. *)

module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module A = Autocfd_analysis
module S = Autocfd_syncopt
module M = Autocfd_perfmodel.Model

let shape parts =
  String.concat " x " (Array.to_list (Array.map string_of_int parts))

let () =
  print_endline "=== Case study 1: aerofoil simulation ===";
  (* full-size static analysis *)
  let full = D.load (Autocfd_apps.Aerofoil.source ()) in
  print_endline "synchronization census (full 99 x 41 x 13 grid):";
  List.iter
    (fun parts ->
      let plan = D.plan ~spec:(parts_spec parts) full in
      Printf.printf "  %-9s  %3d before -> %2d after\n" (shape parts)
        plan.D.opt.S.Optimizer.before plan.D.opt.S.Optimizer.after)
    [ [| 4; 1; 1 |]; [| 1; 4; 1 |]; [| 1; 1; 4 |]; [| 4; 4; 1 |] ];
  (* strategies on the interesting loops *)
  let plan = D.plan ~spec:(parts_spec [| 3; 2; 1 |]) full in
  print_endline "\nparallelization strategies (3 x 2 x 1):";
  List.iter2
    (fun (s : A.Field_loop.summary) (_, strat) ->
      match strat with
      | A.Mirror.Pipeline dims ->
          Printf.printf
            "  line %-4d (do %s): mirror-image pipeline over dims {%s}\n"
            s.A.Field_loop.fs_loop.A.Loops.lp_line
            s.A.Field_loop.fs_loop.A.Loops.lp_var
            (String.concat "," (List.map (fun (d, _) -> string_of_int d) dims))
      | A.Mirror.Serial ->
          Printf.printf "  line %-4d (do %s): serial (replicated)\n"
            s.A.Field_loop.fs_loop.A.Loops.lp_line
            s.A.Field_loop.fs_loop.A.Loops.lp_var
      | A.Mirror.Block -> ())
    plan.D.summaries plan.D.strategies;
  (* modelled wall-clock on the simulated Pentium/Ethernet cluster *)
  let pred =
    M.predict_parallel M.pentium_cluster ~gi:full.D.gi ~topo:plan.D.topo
      plan.D.spmd
  in
  Printf.printf
    "\nmodelled time on the 2003-class cluster (3 x 2 x 1, %d frames): %.1f s\n"
    20 pred.M.time;
  Printf.printf "  (Table 2 of autocfd tables runs the same program for %d frames)\n"
    Autocfd.Experiments.aerofoil_frames;
  (* reduced-size execution for validation *)
  print_endline "\nvalidating on a reduced 20 x 12 x 6 grid, 6 ranks:";
  let small =
    D.load (Autocfd_apps.Aerofoil.source ~ni:20 ~nj:12 ~nk:6 ~ntime:5 ())
  in
  let splan = D.plan ~spec:(parts_spec [| 3; 2; 1 |]) small in
  let seq = D.run_seq small in
  let par = D.run splan in
  Printf.printf "  sequential: %s\n" (String.concat "|" seq.D.sq_output);
  Printf.printf "  parallel:   %s\n"
    (String.concat "|" par.Autocfd_interp.Spmd.output);
  let worst =
    List.fold_left
      (fun acc (_, d) -> Float.max acc d)
      0.0
      (D.max_divergence seq par)
  in
  Printf.printf "  max divergence over all status arrays: %g -> %s\n" worst
    (if worst = 0.0 then "OK" else "MISMATCH")
