module A = Autocfd_analysis
module S = Autocfd_syncopt
module P = Autocfd_partition
module M = Autocfd_perfmodel.Model
module Obs = Autocfd_obs

let strategy_label = function
  | A.Mirror.Serial -> "serial"
  | A.Mirror.Block -> "block"
  | A.Mirror.Pipeline _ -> "pipeline"

let loop_census (plan : Driver.plan) =
  let counts = Hashtbl.create 4 in
  List.iter
    (fun (_, strat) ->
      let k = strategy_label strat in
      Hashtbl.replace counts k
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    plan.Driver.strategies;
  List.filter_map
    (fun k ->
      Option.map (fun v -> (k, v)) (Hashtbl.find_opt counts k))
    [ "block"; "pipeline"; "serial" ]

let shape parts =
  String.concat " x " (Array.to_list (Array.map string_of_int parts))

let rec markdown (plan : Driver.plan) =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  let gi = plan.Driver.source.Driver.gi in
  let topo = plan.Driver.topo in
  line "# Auto-CFD pre-compilation report";
  line "";
  line "## Problem";
  line "";
  line "- flow field: `%s` (%s points)"
    (String.concat " x "
       (Array.to_list (Array.map string_of_int (P.Topology.grid topo))))
    (string_of_int (Array.fold_left ( * ) 1 (P.Topology.grid topo)));
  line "- status arrays: %s"
    (String.concat ", "
       (List.map
          (fun (sa : A.Grid_info.status_array) -> "`" ^ sa.A.Grid_info.sa_name ^ "`")
          gi.A.Grid_info.status));
  line "- partition: `%s` (%d subtasks)" (shape (P.Topology.parts topo))
    (P.Topology.nranks topo);
  line "";
  line "## Field loops";
  line "";
  line "| line | loop | types | strategy |";
  line "|---|---|---|---|";
  List.iter2
    (fun (s : A.Field_loop.summary) (_, strat) ->
      let types =
        String.concat " "
          (List.map
             (fun (v, _) ->
               Printf.sprintf "%s:%s" v
                 (match A.Field_loop.ltype s v with
                 | A.Field_loop.A -> "A"
                 | A.Field_loop.R -> "R"
                 | A.Field_loop.C -> "C"
                 | A.Field_loop.O -> "O"))
             s.A.Field_loop.fs_uses)
      in
      let strat_str =
        match strat with
        | A.Mirror.Serial -> "serial (replicated + allgather)"
        | A.Mirror.Block -> "block-parallel"
        | A.Mirror.Pipeline dims ->
            Printf.sprintf "mirror-image pipeline {%s}"
              (String.concat ","
                 (List.map (fun (d, _) -> string_of_int d) dims))
      in
      line "| %d | `do %s` | %s | %s |" s.A.Field_loop.fs_loop.A.Loops.lp_line
        s.A.Field_loop.fs_loop.A.Loops.lp_var types strat_str)
    plan.Driver.summaries plan.Driver.strategies;
  line "";
  let census = loop_census plan in
  line "Strategy census: %s."
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%d %s" v k) census));
  line "";
  line "## Kernel coverage (fused execution tier)";
  line "";
  let cov =
    Autocfd_interp.Compile.coverage
      (Autocfd_interp.Compile.of_unit plan.Driver.spmd)
  in
  let fused =
    List.length
      (List.filter
         (fun (c : Autocfd_interp.Compile.coverage_entry) ->
           c.Autocfd_interp.Compile.cov_fused)
         cov)
  in
  line
    "%d of %d field-loop nests of the SPMD unit compile to fused kernels \
     (bounds hoisted, subscripts proven in range once, flops charged in \
     one batched update); the rest run on the closure IR."
    fused (List.length cov);
  line "";
  line "| line | loop | kernel |";
  line "|---|---|---|";
  List.iter
    (fun (c : Autocfd_interp.Compile.coverage_entry) ->
      line "| %d | `do %s` | %s |" c.Autocfd_interp.Compile.cov_line
        (String.concat "," c.Autocfd_interp.Compile.cov_vars)
        (if c.Autocfd_interp.Compile.cov_fused then "fused"
         else "fallback: " ^ Autocfd_interp.Compile.reason_to_string c.Autocfd_interp.Compile.cov_reason))
    cov;
  line "";
  line "## Dependence pairs (S_LDP)";
  line "";
  line "- %d dependent pairs (%d self-dependent)"
    (List.length plan.Driver.sldp.A.Sldp.pairs)
    (List.length (A.Sldp.self_pairs plan.Driver.sldp));
  line "- %d while-style (backward GOTO) carrying loops recognized"
    (List.length plan.Driver.sldp.A.Sldp.virtual_spans);
  List.iter
    (fun p ->
      line "- %s" (Format.asprintf "%a" A.Sldp.pp_pair p))
    plan.Driver.sldp.A.Sldp.pairs;
  line "";
  line "## Synchronization optimization";
  line "";
  line
    "- %d synchronization points before optimization, **%d after** \
     (%.0f%% reduction)"
    plan.Driver.opt.S.Optimizer.before plan.Driver.opt.S.Optimizer.after
    (100. *. S.Optimizer.reduction_pct plan.Driver.opt);
  line "";
  line "| point | regions merged | halo traffic |";
  line "|---|---|---|";
  List.iteri
    (fun i (g : S.Combine.group) ->
      let traffic =
        String.concat ", "
          (List.map
             (fun (t : Autocfd_fortran.Ast.transfer) ->
               Printf.sprintf "%s(dim %d, %s, depth %d)"
                 t.Autocfd_fortran.Ast.xfer_array t.Autocfd_fortran.Ast.xfer_dim
                 (match t.Autocfd_fortran.Ast.xfer_dir with
                 | Autocfd_fortran.Ast.Dplus -> "+"
                 | Autocfd_fortran.Ast.Dminus -> "-")
                 t.Autocfd_fortran.Ast.xfer_depth)
             g.S.Combine.gr_transfers)
      in
      line "| #%d | %d | %s |" (i + 1)
        (List.length g.S.Combine.gr_regions)
        traffic)
    plan.Driver.opt.S.Optimizer.groups;
  line "";
  line "## Modelled execution (reference 2003-class cluster)";
  line "";
  let pred =
    M.predict_parallel M.pentium_cluster ~gi ~topo plan.Driver.spmd
  in
  let seq =
    M.predict_sequential M.pentium_cluster ~gi
      plan.Driver.source.Driver.inlined
  in
  line "| quantity | value |";
  line "|---|---|";
  line "| sequential time | %.1f s |" seq.M.time;
  line "| parallel time | %.1f s |" pred.M.time;
  line "| speedup | %.2f |" (seq.M.time /. pred.M.time);
  line "| efficiency | %.0f%% |"
    (100. *. seq.M.time /. pred.M.time
    /. float_of_int (P.Topology.nranks topo));
  line "| block compute | %.1f s |" pred.M.compute_time;
  line "| pipeline (incl. wavefront stalls) | %.1f s |" pred.M.pipeline_time;
  line "| replicated (serial) compute | %.1f s |" pred.M.serial_time;
  line "| communication | %.1f s |" pred.M.comm_time;
  line "| reductions/broadcasts | %.1f s |" pred.M.reduce_time;
  line "| per-rank working set | %.2f MB |" (pred.M.working_set /. 1e6);
  line "| memory slowdown factor | %.2f |" pred.M.slowdown;
  line "";
  measured_section b plan;
  Buffer.contents b

and measured_section b (plan : Driver.plan) =
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
  in
  line "## Measured execution (simulated cluster)";
  line "";
  let run_traced plan =
    let tracer = Obs.Trace.create () in
    let result =
      Driver.run
        ~spec:
          Runspec.(
            default
            |> with_machine (Some M.pentium_cluster)
            |> with_tracer (Some tracer))
        plan
    in
    (result, tracer)
  in
  match run_traced plan with
  | exception e ->
      line "_not measured: execution failed (%s)_"
        (Printexc.to_string e)
  | result, tracer ->
      let stats = result.Autocfd_interp.Spmd.stats in
      let m = Obs.Metrics.of_trace tracer in
      line
        "Execution-driven timing (calibrated per-flop charge + network \
         model): **%.2f s** simulated wall clock, %d messages, %d bytes, \
         %d collectives."
        stats.Autocfd_mpsim.Sim.elapsed stats.Autocfd_mpsim.Sim.messages
        stats.Autocfd_mpsim.Sim.bytes stats.Autocfd_mpsim.Sim.collectives;
      line "";
      line "### Per-rank time breakdown";
      line "";
      line "| rank | compute (s) | comm (s) | blocked (s) | finish (s) | blocked %% |";
      line "|---|---|---|---|---|---|";
      Array.iter
        (fun (r : Obs.Metrics.rank_row) ->
          line "| %d | %.3f | %.3f | %.3f | %.3f | %.1f%% |"
            r.Obs.Metrics.rr_rank r.Obs.Metrics.rr_compute
            r.Obs.Metrics.rr_comm r.Obs.Metrics.rr_blocked
            r.Obs.Metrics.rr_finish
            (if r.Obs.Metrics.rr_finish > 0.0 then
               100. *. r.Obs.Metrics.rr_blocked /. r.Obs.Metrics.rr_finish
             else 0.0))
        m.Obs.Metrics.ranks;
      line "";
      line "### Per-sync-point traffic";
      line "";
      line
        "| # | sync point | loop | entries | messages | bytes | comm (s) | \
         blocked (s) |";
      line "|---|---|---|---|---|---|---|---|";
      List.iter
        (fun (s : Obs.Metrics.sync_row) ->
          line "| %d | `%s` | %s | %d | %d | %d | %.3f | %.3f |"
            s.Obs.Metrics.sr_id s.Obs.Metrics.sr_label
            (match s.Obs.Metrics.sr_loop with
            | Some v -> "`do " ^ v ^ "`"
            | None -> "—")
            s.Obs.Metrics.sr_executions s.Obs.Metrics.sr_messages
            s.Obs.Metrics.sr_bytes s.Obs.Metrics.sr_comm_time
            s.Obs.Metrics.sr_blocked_time)
        m.Obs.Metrics.syncs

let sched_summary ?(stale = 0) stats =
  let module Pool = Autocfd_sched.Pool in
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
  in
  line "## Sweep scheduler";
  line "";
  line "| table | jobs | hits | misses | corrupt | errors | elapsed (s) |";
  line "|---|---|---|---|---|---|---|";
  List.iter
    (fun (table, (s : Pool.stats)) ->
      line "| %s | %d | %d | %d | %d | %d | %.3f |" table s.Pool.ps_jobs
        s.Pool.ps_hits s.Pool.ps_misses s.Pool.ps_corrupt s.Pool.ps_errors
        s.Pool.ps_elapsed)
    stats;
  line "";
  let nworkers =
    List.fold_left
      (fun acc (_, (s : Pool.stats)) ->
        max acc (Array.length s.Pool.ps_busy))
      0 stats
  in
  if nworkers > 0 then begin
    line "### Per-domain utilization";
    line "";
    line "| domain | jobs handled | busy (s) | utilization |";
    line "|---|---|---|---|";
    for w = 0 to nworkers - 1 do
      let handled, busy, util_num, util_den =
        List.fold_left
          (fun (h, bs, un, ud) (_, (s : Pool.stats)) ->
            if w < Array.length s.Pool.ps_busy then
              ( h + s.Pool.ps_ran.(w),
                bs +. s.Pool.ps_busy.(w),
                un +. (Pool.utilization s w *. s.Pool.ps_elapsed),
                ud +. s.Pool.ps_elapsed )
            else (h, bs, un, ud))
          (0, 0.0, 0.0, 0.0) stats
      in
      let util = if util_den > 0.0 then util_num /. util_den else 0.0 in
      line "| %d | %d | %.3f | %.0f%% |" w handled busy (100. *. util)
    done
  end;
  if stale > 0 then begin
    line "";
    line "Swept %d stale cache temp file%s on open." stale
      (if stale = 1 then "" else "s")
  end;
  Buffer.contents b

let sched_summary_json ?(stale = 0) stats =
  let module Pool = Autocfd_sched.Pool in
  let module J = Obs.Json in
  let batch_json (table, (s : Pool.stats)) =
    J.Obj
      [
        ("table", J.Str table);
        ("jobs", J.Int s.Pool.ps_jobs);
        ("hits", J.Int s.Pool.ps_hits);
        ("misses", J.Int s.Pool.ps_misses);
        ("corrupt", J.Int s.Pool.ps_corrupt);
        ("errors", J.Int s.Pool.ps_errors);
        ("elapsed_wall", J.Float s.Pool.ps_elapsed);
        ("workers",
         J.List
           (List.init (Array.length s.Pool.ps_busy) (fun w ->
                J.Obj
                  [
                    ("worker", J.Int w);
                    ("jobs", J.Int s.Pool.ps_ran.(w));
                    ("busy_wall", J.Float s.Pool.ps_busy.(w));
                    ("utilization", J.Float (Pool.utilization s w));
                  ])));
      ]
  in
  J.Obj
    [
      ("schema", J.Str "autocfd-sched/1");
      ("stale_cleaned", J.Int stale);
      ("batches", J.List (List.map batch_json stats));
    ]

let fabric_summary (fs : Autocfd_sched.Fabric.stats) =
  let module Fabric = Autocfd_sched.Fabric in
  let b = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt
  in
  line "## Distributed fabric";
  line "";
  line
    "| requeues | retries | lease expiries | worker deaths | quarantined \
     | stale results | corrupt frames |";
  line "|---|---|---|---|---|---|---|";
  line "| %d | %d | %d | %d | %d | %d | %d |" fs.Fabric.fs_requeues
    fs.Fabric.fs_retries fs.Fabric.fs_lease_expiries fs.Fabric.fs_worker_deaths
    fs.Fabric.fs_quarantined fs.Fabric.fs_stale_results
    fs.Fabric.fs_corrupt_frames;
  line "";
  if fs.Fabric.fs_degraded then
    line "Degraded: at least one batch fell back to the in-process pool.";
  if fs.Fabric.fs_workers <> [] then begin
    line "### Workers";
    line "";
    line "| worker | pid | alive | leases | done | corrupt |";
    line "|---|---|---|---|---|---|";
    List.iter
      (fun (w : Fabric.worker_stats) ->
        line "| %s | %s | %s | %d | %d | %d |" w.Fabric.ws_id
          (match w.Fabric.ws_pid with Some p -> string_of_int p | None -> "—")
          (if w.Fabric.ws_alive then "yes" else "no")
          w.Fabric.ws_leases w.Fabric.ws_done w.Fabric.ws_corrupt)
      fs.Fabric.fs_workers
  end;
  Buffer.contents b
