(** Benchmark harness: regenerates every table of the paper's evaluation
    (§6, Tables 1-5) side by side with the published values, then runs
    Bechamel micro-benchmarks of the pipeline stages that produce them.

    Usage:
      bench/main.exe             print all tables + micro-benchmarks
      bench/main.exe table1      one table
      bench/main.exe tables      all tables, no micro-benchmarks
                                 ([--check]: three-pass CI smoke — serial,
                                 cold parallel and warm parallel sweeps
                                 must render byte-identically, the warm
                                 pass must be 100% cache hits and at
                                 least 5x faster than the cold pass)
      bench/main.exe micro       micro-benchmarks only
      bench/main.exe ablation    optimal vs first-fit combining ablation
      bench/main.exe engine      the three execution engines (tree, fused
                                 with and without fused kernels, domains)
                                 timed on the wall clock, plus per-loop
                                 kernel coverage ([--check]: exit nonzero
                                 unless results are identical and fused
                                 kernels at least match the unfused
                                 closure IR's speedup)
      bench/main.exe coverage    per-nest fused-kernel coverage of the
                                 bundled applications, before/after the
                                 loop-fission pass, gated against the
                                 committed COVERAGE.json manifest
                                 ([--update-coverage]: rewrite it)
      bench/main.exe chaos       seeded fault schedules vs the reliable
                                 transport and checkpoint/restart
                                 ([--check]: exit nonzero unless every
                                 recoverable schedule yields bit-identical
                                 results within the overhead budget)
      bench/main.exe tune        auto-tune both case studies: every point
                                 of the configuration product space
                                 (rank count x feasible partition shape x
                                 sync combining, [--grid wide] adds
                                 fission/fusion ablations and the real
                                 Domains engine) as cached sweep jobs;
                                 prints the winner plus the Pareto
                                 frontier per program
                                 ([--check]: three-pass gate — serial,
                                 cold parallel and warm parallel tunes
                                 must render byte-identically, the warm
                                 pass must be 100% cache hits, the tuned
                                 winner must not lose to any hand-picked
                                 Table 2/3 row, and the frontier must
                                 contain no dominated entry)
      bench/main.exe fabric      the pooled tables over the distributed
                                 master/worker fabric (spawns --workers
                                 processes, default 3)
                                 ([--check]: three-pass chaos gate —
                                 serial reference, master + 3 workers
                                 with one SIGKILLed mid-sweep (must
                                 render byte-identically with >= 1
                                 requeue and leave fabric_trace.json),
                                 and a worker-less master that must
                                 degrade to the in-process pool)
      bench/main.exe worker --connect ADDR
                                 one fabric worker process: lease job
                                 specs from the master at ADDR, heartbeat
                                 while resolving, stream results back
                                 (exits nonzero if ADDR is unreachable)
      bench/main.exe --json      write BENCH_tables.json (tables 1-5 +
                                 model validation + engine speedup +
                                 sweep scheduler stats, machine-readable,
                                 for diffing the perf trajectory across
                                 PRs)

    Baseline gate (perf-regression CI):
      --baseline F       baseline document (default: BENCH_baseline.json)
      --check-regress    regenerate the tables and gate them against the
                         baseline ({!Autocfd.Baseline}): modelled times /
                         sync counts must not rise, speedups must not
                         fall, engine identity and chaos recovery must
                         stay true; exit nonzero on any regression
      --update-baseline  regenerate the tables and (over-)write the
                         baseline file
      --coverage F       coverage manifest (default: COVERAGE.json); any
                         nest it lists as fused must still fuse — the
                         [engine --check] and [coverage] verbs gate on it
      --update-coverage  (over-)write the coverage manifest instead of
                         gating against it
      --tolerance T      relative allowance for deterministic
                         (virtual-clock) numbers (default 0.05); the
                         host-wall-clock engine speedups always use the
                         generous 0.5

    Sweep options (any verb that regenerates tables):
      --jobs N        worker domains for the row sweep (default: all cores)
      --workers N     spawn N fabric worker processes and run the sweep
                      over the distributed fabric instead of in-process
      --connect ADDR  (worker verb) fabric master address: unix:/path,
                      a bare socket path, or host:port
      --no-cache      disable the persistent result cache
      --cache-dir D   cache directory (default: _autocfd_cache)

    Table output goes to stdout and is byte-identical for any --jobs value
    and for cold vs warm caches; scheduler/cache statistics go to
    stderr. *)

module E = Autocfd.Experiments
module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module S = Autocfd_syncopt
module Sched = Autocfd_sched

(* ------------------------------------------------------------------ *)
(* Option parsing: verb [--check] [--jobs N] [--no-cache] [--cache-dir D] *)
(* ------------------------------------------------------------------ *)

type opts = {
  o_verb : string;
  o_check : bool;
  o_jobs : int;
  o_workers : int;
  o_connect : string option;
  o_cache : bool;
  o_cache_dir : string;
  o_baseline : string;
  o_check_regress : bool;
  o_update_baseline : bool;
  o_coverage : string;
  o_update_coverage : bool;
  o_tolerance : float;
  o_grid : Autocfd.Tune.grid;
}

let usage () =
  Printf.eprintf
    "usage: %s [table1..table5|tables|validate|engine|coverage|chaos|\
     tune|fabric|worker|ablation|advisor|micro|--json|all] [--check] \
     [--jobs N] [--workers N] [--connect ADDR] [--no-cache] \
     [--cache-dir D] [--baseline F] [--check-regress] [--update-baseline] \
     [--coverage F] [--update-coverage] [--tolerance T] \
     [--grid narrow|default|wide]\n"
    Sys.argv.(0);
  exit 1

let parse_opts () =
  let o =
    ref
      {
        o_verb = "all";
        o_check = false;
        o_jobs = Sched.Pool.default_jobs ();
        o_workers = 0;
        o_connect = None;
        o_cache = true;
        o_cache_dir = "_autocfd_cache";
        o_baseline = "BENCH_baseline.json";
        o_check_regress = false;
        o_update_baseline = false;
        o_coverage = "COVERAGE.json";
        o_update_coverage = false;
        o_tolerance = 0.05;
        o_grid = Autocfd.Tune.Default;
      }
  in
  let rec go i =
    if i < Array.length Sys.argv then
      match Sys.argv.(i) with
      | "--check" ->
          o := { !o with o_check = true };
          go (i + 1)
      | "--no-cache" ->
          o := { !o with o_cache = false };
          go (i + 1)
      | "--check-regress" ->
          o := { !o with o_check_regress = true };
          go (i + 1)
      | "--update-baseline" ->
          o := { !o with o_update_baseline = true };
          go (i + 1)
      | "--update-coverage" ->
          o := { !o with o_update_coverage = true };
          go (i + 1)
      | "--coverage" when i + 1 < Array.length Sys.argv ->
          o := { !o with o_coverage = Sys.argv.(i + 1) };
          go (i + 2)
      | "--jobs" when i + 1 < Array.length Sys.argv ->
          (match int_of_string_opt Sys.argv.(i + 1) with
          | Some n when n >= 1 -> o := { !o with o_jobs = n }
          | _ ->
              Printf.eprintf "--jobs: expected a positive integer\n";
              exit 1);
          go (i + 2)
      | "--workers" when i + 1 < Array.length Sys.argv ->
          (match int_of_string_opt Sys.argv.(i + 1) with
          | Some n when n >= 0 -> o := { !o with o_workers = n }
          | _ ->
              Printf.eprintf "--workers: expected a non-negative integer\n";
              exit 1);
          go (i + 2)
      | "--connect" when i + 1 < Array.length Sys.argv ->
          o := { !o with o_connect = Some Sys.argv.(i + 1) };
          go (i + 2)
      | "--cache-dir" when i + 1 < Array.length Sys.argv ->
          o := { !o with o_cache_dir = Sys.argv.(i + 1) };
          go (i + 2)
      | "--baseline" when i + 1 < Array.length Sys.argv ->
          o := { !o with o_baseline = Sys.argv.(i + 1) };
          go (i + 2)
      | "--grid" when i + 1 < Array.length Sys.argv ->
          (match Autocfd.Tune.grid_of_string Sys.argv.(i + 1) with
          | Ok g -> o := { !o with o_grid = g }
          | Error msg ->
              Printf.eprintf "--grid: %s\n" msg;
              exit 1);
          go (i + 2)
      | "--tolerance" when i + 1 < Array.length Sys.argv ->
          (match float_of_string_opt Sys.argv.(i + 1) with
          | Some t when t >= 0.0 -> o := { !o with o_tolerance = t }
          | _ ->
              Printf.eprintf "--tolerance: expected a non-negative number\n";
              exit 1);
          go (i + 2)
      | ("--jobs" | "--workers" | "--connect" | "--cache-dir" | "--baseline"
        | "--coverage" | "--tolerance" | "--grid") as a ->
          Printf.eprintf "%s: missing argument\n" a;
          exit 1
      | a when i = 1 && (a = "--json" || (String.length a > 0 && a.[0] <> '-'))
        ->
          o := { !o with o_verb = a };
          go (i + 1)
      | a ->
          Printf.eprintf "unknown option %S\n" a;
          usage ()
  in
  go 1;
  !o

let make_cache opts =
  if opts.o_cache then
    try Some (Sched.Cache.create ~dir:opts.o_cache_dir ())
    with Sys_error msg ->
      Printf.eprintf "bench: unusable cache directory: %s\n" msg;
      exit 1
  else None

(* a fabric master listening on a private unix socket, with [n] worker
   processes re-execing this very binary's [worker] verb *)
let make_fabric ?cfg n =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocfd-bench-%d.sock" (Unix.getpid ()))
  in
  let fb = Sched.Fabric.create ?cfg ~listen:(Sched.Fabric.Unix_path sock) () in
  let addr = Sched.Fabric.addr_to_string (Sched.Fabric.addr fb) in
  for _ = 1 to n do
    ignore
      (Sched.Fabric.spawn_worker fb
         ~argv:[| Sys.executable_name; "worker"; "--connect"; addr |])
  done;
  fb

let make_sweep ?fabric opts =
  E.sweep ~jobs:opts.o_jobs ?cache:(make_cache opts) ?fabric ()

let report_sweep ?fabric sw =
  let stats = E.sweep_stats sw in
  if stats <> [] then
    prerr_string
      (Autocfd.Report.sched_summary ~stale:(E.sweep_stale sw) stats);
  match fabric with
  | Some fb ->
      prerr_string (Autocfd.Report.fabric_summary (Sched.Fabric.stats fb));
      Sched.Fabric.shutdown fb
  | None -> ()

(* one fabric worker process (the [worker] verb): resolve job specs
   through the shared Experiments dispatcher until the master hangs up *)
let run_worker opts =
  let addr_str =
    match opts.o_connect with
    | Some a -> a
    | None ->
        Printf.eprintf "worker: --connect ADDR is required\n";
        exit 1
  in
  match Sched.Fabric.addr_of_string addr_str with
  | Error msg ->
      Printf.eprintf "worker: %s\n" msg;
      exit 1
  | Ok addr -> (
      match
        Sched.Fabric.serve ~connect:addr ~resolve:E.exec_spec ()
      with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "worker: %s\n" msg;
          exit 1)

(* ------------------------------------------------------------------ *)
(* Table printing (stdout only; stats go to stderr afterwards)         *)
(* ------------------------------------------------------------------ *)

let table1_string sw = E.render_table1 (E.table1 ~sweep:sw ())

let table2_string sw =
  E.render_perf
    ~title:
      "Table 2: overall performance of case study 1 (aerofoil, \
       99 x 41 x 13; ours vs paper)"
    (E.table2 ~sweep:sw ())

let table3_string sw =
  E.render_perf
    ~title:
      "Table 3: overall performance of case study 2 (sprayer, \
       300 x 100; ours vs paper)"
    (E.table3 ~sweep:sw ())

let table4_string sw = E.render_table4 (E.table4 ~sweep:sw ())
let table5_string sw = E.render_table5 (E.table5 ~sweep:sw ())
let validation_string sw = E.render_validation (E.validate_model ~sweep:sw ())

(* the pooled part of `tables`: what the three-pass --check compares *)
let sweep_tables_string sw =
  String.concat "\n"
    [
      table1_string sw; table2_string sw; table3_string sw; table4_string sw;
      table5_string sw; validation_string sw;
    ]

(* ------------------------------------------------------------------ *)
(* Ablation: the paper's optimal combining (Fig. 6(b)) vs the          *)
(* suboptimal first-fit strategy (Fig. 6(c))                           *)
(* ------------------------------------------------------------------ *)

let print_ablation () =
  let open Autocfd_util.Table in
  let table =
    create
      ~title:
        "Ablation: optimal combining (Fig. 6(b)) vs first-fit (Fig. 6(c))"
      ~headers:
        [ "program"; "partition"; "before"; "optimal after";
          "first-fit after" ]
  in
  let run src name partitions =
    let t = D.load src in
    List.iter
      (fun parts ->
        let opt = D.plan ~spec:(parts_spec parts) t in
        let ff =
          D.plan
            ~spec:
              (Autocfd.Runspec.with_combine S.Optimizer.First_fit
                 (parts_spec parts))
            t
        in
        add_row table
          [
            name;
            String.concat " x "
              (Array.to_list (Array.map string_of_int parts));
            cell_int opt.D.opt.S.Optimizer.before;
            cell_int opt.D.opt.S.Optimizer.after;
            cell_int ff.D.opt.S.Optimizer.after;
          ])
      partitions
  in
  run (Autocfd_apps.Aerofoil.source ()) "aerofoil"
    [ [| 4; 1; 1 |]; [| 4; 4; 1 |]; [| 2; 2; 2 |] ];
  run (Autocfd_apps.Sprayer.source ()) "sprayer"
    [ [| 4; 1 |]; [| 4; 4 |] ];
  print table

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table                  *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let aero_src = Autocfd_apps.Aerofoil.source () in
  let spray_src = Autocfd_apps.Sprayer.source () in
  let aero = D.load aero_src in
  let spray = D.load spray_src in
  let small = D.load (Autocfd_apps.Sprayer.source ~ni:40 ~nj:20 ~ntime:3 ()) in
  let small_plan = D.plan ~spec:(parts_spec [| 2; 2 |]) small in
  let small_aero =
    D.load (Autocfd_apps.Aerofoil.source ~ni:16 ~nj:10 ~nk:6 ~ntime:2 ())
  in
  let run_engine ?(fuse = true) engine plan () =
    ignore
      (D.run
         ~spec:Autocfd.Runspec.(default |> with_engine engine |> with_fuse fuse)
         plan)
  in
  let tests =
    [
      (* Table 1 pipeline stage: full analysis + sync optimization *)
      Test.make ~name:"table1:analyze+optimize (aerofoil 4x1x1)"
        (Staged.stage (fun () -> ignore (D.plan ~spec:(parts_spec [| 4; 1; 1 |]) aero)));
      Test.make ~name:"table1:analyze+optimize (sprayer 4x4)"
        (Staged.stage (fun () -> ignore (D.plan ~spec:(parts_spec [| 4; 4 |]) spray)));
      (* Tables 2/3: the analytic performance prediction *)
      Test.make ~name:"table2:predict (aerofoil 3x2x1)"
        (Staged.stage
           (let plan = D.plan ~spec:(parts_spec [| 3; 2; 1 |]) aero in
            fun () ->
              ignore
                (Autocfd_perfmodel.Model.predict_parallel E.machine
                   ~gi:aero.D.gi ~topo:plan.D.topo plan.D.spmd)));
      Test.make ~name:"table3:predict (sprayer 2x2)"
        (Staged.stage
           (let plan = D.plan ~spec:(parts_spec [| 2; 2 |]) spray in
            fun () ->
              ignore
                (Autocfd_perfmodel.Model.predict_parallel E.machine
                   ~gi:spray.D.gi ~topo:plan.D.topo plan.D.spmd)));
      (* Table 4 stage: frontend parse + inline across grid sizes *)
      Test.make ~name:"table4:parse+inline (sprayer 160x60)"
        (Staged.stage (fun () ->
             ignore (D.load (Autocfd_apps.Sprayer.source ~ni:160 ~nj:60 ()))));
      (* Table 5 stage / correctness path: simulated SPMD execution *)
      Test.make ~name:"table5:spmd-execute (sprayer 40x20, 4 ranks)"
        (Staged.stage (fun () -> ignore (D.run small_plan)));
      (* Execution engines head to head on the same simulated runs *)
      Test.make ~name:"engine:tree-walk (sprayer 40x20, 4 ranks)"
        (Staged.stage (run_engine Autocfd_interp.Spmd.Tree small_plan));
      Test.make ~name:"engine:compiled (sprayer 40x20, 4 ranks)"
        (Staged.stage
           (run_engine ~fuse:false Autocfd_interp.Spmd.Fused small_plan));
      Test.make ~name:"engine:fused (sprayer 40x20, 4 ranks)"
        (Staged.stage (run_engine Autocfd_interp.Spmd.Fused small_plan));
      Test.make ~name:"engine:tree-walk (aerofoil 16x10x6, 4 ranks)"
        (Staged.stage
           (run_engine Autocfd_interp.Spmd.Tree
              (D.plan ~spec:(parts_spec [| 2; 2; 1 |]) small_aero)));
      Test.make ~name:"engine:compiled (aerofoil 16x10x6, 4 ranks)"
        (Staged.stage
           (run_engine ~fuse:false Autocfd_interp.Spmd.Fused
              (D.plan ~spec:(parts_spec [| 2; 2; 1 |]) small_aero)));
      Test.make ~name:"engine:fused (aerofoil 16x10x6, 4 ranks)"
        (Staged.stage
           (run_engine Autocfd_interp.Spmd.Fused
              (D.plan ~spec:(parts_spec [| 2; 2; 1 |]) small_aero)));
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances test
      in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false
             ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              Printf.printf "%-50s %12.3f us/run\n" name (est /. 1000.)
          | _ -> Printf.printf "%-50s (no estimate)\n" name)
        ols)
    tests

(* ------------------------------------------------------------------ *)
(* Partition advisor: the paper's volume heuristic vs the full model    *)
(* ------------------------------------------------------------------ *)

let print_advisor () =
  let open Autocfd_util.Table in
  let module M = Autocfd_perfmodel.Model in
  let table =
    create
      ~title:
        "Partition advisor: minimal-communication choice (paper 4.1) vs \
         model-predicted best"
      ~headers:
        [ "program"; "procs"; "volume choice"; "model choice";
          "volume time (s)"; "model time (s)" ]
  in
  let shape parts =
    String.concat " x " (Array.to_list (Array.map string_of_int parts))
  in
  let run name src nprocs_list =
    let t = D.load src in
    List.iter
      (fun nprocs ->
        let pv = D.auto_parts t ~nprocs in
        let pm = D.auto_parts_by_model t ~nprocs in
        let time parts =
          let plan = D.plan ~spec:(parts_spec parts) t in
          (M.predict_parallel E.machine ~gi:t.D.gi ~topo:plan.D.topo
             plan.D.spmd)
            .M.time
        in
        add_row table
          [
            name; cell_int nprocs; shape pv; shape pm;
            cell_float ~decimals:0 (time pv);
            cell_float ~decimals:0 (time pm);
          ])
      nprocs_list
  in
  run "aerofoil"
    (Autocfd_apps.Aerofoil.source ~ntime:E.aerofoil_frames ())
    [ 4; 6 ];
  run "sprayer"
    (Autocfd_apps.Sprayer.source ~ntime:E.sprayer_frames ())
    [ 4; 6 ];
  print table

let load_json path =
  match
    try Some (In_channel.with_open_text path In_channel.input_all)
    with Sys_error _ -> None
  with
  | None ->
      Printf.eprintf "cannot read %s\n" path;
      exit 1
  | Some text -> (
      try Autocfd_obs.Json.of_string text
      with Autocfd_obs.Json.Parse_error msg ->
        Printf.eprintf "%s: malformed JSON: %s\n" path msg;
        exit 1)

(* per-nest coverage manifest gate ([engine --check] sub-gate, also run
   standalone by the [coverage] verb): the current build's fused-kernel
   coverage of the bundled applications must not regress against the
   committed COVERAGE.json *)
let coverage_gate opts =
  let current = E.coverage_manifest () in
  if opts.o_update_coverage then begin
    Sched.Cache.write_atomic ~path:opts.o_coverage
      (Autocfd_obs.Json.pretty current ^ "\n");
    Printf.printf "wrote %s\n" opts.o_coverage
  end
  else begin
    if not (Sys.file_exists opts.o_coverage) then begin
      Printf.eprintf
        "FAIL: coverage manifest %s not found (generate it with \
         --update-coverage)\n"
        opts.o_coverage;
      exit 1
    end;
    let committed = load_json opts.o_coverage in
    let regressions =
      try E.check_coverage_manifest ~committed ~current
      with Autocfd_obs.Json.Parse_error msg ->
        Printf.eprintf "FAIL: malformed coverage manifest %s: %s\n"
          opts.o_coverage msg;
        exit 1
    in
    List.iter (fun m -> Printf.eprintf "FAIL coverage: %s\n" m) regressions;
    if regressions <> [] then exit 1;
    Printf.printf "OK coverage: no fused nest regressed vs %s\n"
      opts.o_coverage
  end

let write_json opts =
  let path = "BENCH_tables.json" in
  let sw = make_sweep opts in
  let doc = E.tables_json ~sweep:sw () in
  let text = Autocfd_obs.Json.pretty doc ^ "\n" in
  Sched.Cache.write_atomic ~path text;
  report_sweep sw;
  Printf.printf "wrote %s\n" path;
  if opts.o_update_baseline then begin
    Sched.Cache.write_atomic ~path:opts.o_baseline text;
    Printf.printf "wrote %s\n" opts.o_baseline
  end;
  if opts.o_check_regress then begin
    let baseline = load_json opts.o_baseline in
    let failures =
      Autocfd.Baseline.compare_tables ~tolerance:opts.o_tolerance ~baseline
        ~current:doc ()
    in
    print_string (Autocfd.Baseline.render_failures failures);
    if failures <> [] then exit 1
  end

let all_tables sw =
  print_string (sweep_tables_string sw);
  print_newline ();
  print_ablation ();
  print_newline ();
  print_advisor ()

(* ------------------------------------------------------------------ *)
(* tables --check: the CI smoke for the sweep scheduler + cache.       *)
(* Three passes over the pooled tables:                                 *)
(*   0. serial, no cache            — the reference rendering           *)
(*   1. parallel, cold cache        — must render byte-identically      *)
(*   2. parallel, warm cache        — byte-identical, 100% hits, and    *)
(*      at least 5x faster than the cold pass                           *)
(* ------------------------------------------------------------------ *)

let check_tables opts =
  let cache_dir =
    if opts.o_cache_dir = "_autocfd_cache" then "_autocfd_cache.check"
    else opts.o_cache_dir
  in
  let cache = Sched.Cache.create ~dir:cache_dir () in
  Sched.Cache.clear cache;
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let pass label sweep =
    Printf.eprintf "pass %s...\n%!" label;
    let (out, elapsed) = timed (fun () -> sweep_tables_string sweep) in
    (out, elapsed, E.sweep_stats sweep)
  in
  let out0, _, _ = pass "0 (serial, no cache)" (E.sweep ()) in
  let out1, t_cold, _ =
    pass
      (Printf.sprintf "1 (parallel --jobs %d, cold cache)" opts.o_jobs)
      (E.sweep ~jobs:opts.o_jobs ~cache ())
  in
  let out2, t_warm, stats2 =
    pass
      (Printf.sprintf "2 (parallel --jobs %d, warm cache)" opts.o_jobs)
      (E.sweep ~jobs:opts.o_jobs ~cache ())
  in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
  if out1 <> out0 then
    fail "FAIL: cold parallel sweep diverged from the serial rendering";
  if out2 <> out0 then
    fail "FAIL: warm-cache sweep diverged from the serial rendering";
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, (s : Sched.Pool.stats)) ->
        (h + s.Sched.Pool.ps_hits, m + s.Sched.Pool.ps_misses))
      (0, 0) stats2
  in
  if misses > 0 then
    fail "FAIL: warm pass had %d cache misses (%d hits) — expected 100%% hits"
      misses hits;
  let speedup = t_cold /. t_warm in
  if speedup < 5.0 then
    fail "FAIL: warm pass only %.1fx faster than cold (%.2fs vs %.2fs) — \
          expected at least 5x"
      speedup t_warm t_cold;
  Printf.printf
    "OK tables: 3 passes byte-identical, warm pass %d/%d hits, %.1fx \
     faster than cold (%.2fs vs %.2fs)\n"
    hits (hits + misses) speedup t_warm t_cold

(* ------------------------------------------------------------------ *)
(* tune: auto-search the configuration space of both case studies.      *)
(* tune --check gates the CI on four properties:                        *)
(*   - three passes (serial/no-cache, parallel/cold, parallel/warm)     *)
(*     render byte-identically, and the warm pass is 100% cache hits    *)
(*   - the tuned winner's modelled time does not lose to any            *)
(*     hand-picked Table 2/3 configuration                              *)
(*   - the reported Pareto frontier contains no dominated entry         *)
(* ------------------------------------------------------------------ *)

let tune_string ~grid sw =
  String.concat "\n"
    (List.map Autocfd.Tune.render (E.tune_table ~grid ~sweep:sw ()))

let check_tune opts =
  let module T = Autocfd.Tune in
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
  let cache_dir =
    if opts.o_cache_dir = "_autocfd_cache" then "_autocfd_cache.tune"
    else opts.o_cache_dir
  in
  let cache = Sched.Cache.create ~dir:cache_dir () in
  Sched.Cache.clear cache;
  (* the gate runs the deterministic default grid regardless of --grid:
     wide-grid wall measurements would break byte-identity *)
  let grid = T.Default in
  let pass label sweep =
    Printf.eprintf "pass %s...\n%!" label;
    let results = E.tune_table ~grid ~sweep () in
    ( String.concat "\n" (List.map T.render results),
      results,
      E.sweep_stats sweep )
  in
  let out0, results, _ = pass "0 (serial, no cache)" (E.sweep ()) in
  let out1, _, _ =
    pass
      (Printf.sprintf "1 (parallel --jobs %d, cold cache)" opts.o_jobs)
      (E.sweep ~jobs:opts.o_jobs ~cache ())
  in
  let out2, _, stats2 =
    pass
      (Printf.sprintf "2 (parallel --jobs %d, warm cache)" opts.o_jobs)
      (E.sweep ~jobs:opts.o_jobs ~cache ())
  in
  if out1 <> out0 then
    fail "FAIL: cold parallel tune diverged from the serial rendering";
  if out2 <> out0 then
    fail "FAIL: warm-cache tune diverged from the serial rendering";
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, (s : Sched.Pool.stats)) ->
        (h + s.Sched.Pool.ps_hits, m + s.Sched.Pool.ps_misses))
      (0, 0) stats2
  in
  if misses > 0 then
    fail "FAIL: warm pass had %d cache misses (%d hits) — expected 100%% hits"
      misses hits;
  (* the winner must not lose to any hand-picked default configuration
     of the same program's timing table *)
  let sw = E.sweep () in
  let defaults =
    [ ("aerofoil", E.table2 ~sweep:sw ()); ("sprayer", E.table3 ~sweep:sw ()) ]
  in
  List.iter
    (fun (r : T.result) ->
      let w = r.T.tr_winner in
      List.iter
        (fun (row : E.perf_row) ->
          match row.E.pr_partition with
          | None -> ()  (* the sequential reference row *)
          | Some parts ->
              if w.T.te_metrics.T.tm_time > row.E.pr_time then
                fail
                  "FAIL %s: tuned winner %.1f s loses to the hand-picked \
                   %s row (%.1f s)"
                  r.T.tr_program w.T.te_metrics.T.tm_time
                  (Autocfd.Runspec.parts_to_string parts)
                  row.E.pr_time)
        (List.assoc r.T.tr_program defaults))
    results;
  (* no frontier entry may dominate another: the published frontier is
     actually Pareto-minimal *)
  List.iter
    (fun (r : T.result) ->
      List.iter
        (fun (e : T.entry) ->
          if
            List.exists
              (fun (o : T.entry) ->
                o != e && T.dominates o.T.te_metrics e.T.te_metrics)
              r.T.tr_frontier
          then
            fail "FAIL %s: frontier contains a dominated entry (%s)"
              r.T.tr_program
              (Autocfd.Runspec.parts_to_string e.T.te_parts))
        r.T.tr_frontier)
    results;
  List.iter
    (fun (r : T.result) ->
      Printf.printf
        "OK %s: winner %s at %.1f s beats every hand-picked row; frontier \
         of %d/%d is Pareto-minimal\n"
        r.T.tr_program
        (Autocfd.Runspec.parts_to_string r.T.tr_winner.T.te_parts)
        r.T.tr_winner.T.te_metrics.T.tm_time
        (List.length r.T.tr_frontier) r.T.tr_total)
    results;
  Printf.printf
    "OK tune: 3 passes byte-identical, warm pass %d/%d hits\n" hits
    (hits + misses)

(* ------------------------------------------------------------------ *)
(* fabric --check: the distributed-sweep chaos gate.                    *)
(* Three passes over the pooled tables:                                 *)
(*   0. serial, in-process           — the reference rendering          *)
(*   1. master + 3 worker processes, one SIGKILLed mid-sweep — must     *)
(*      render byte-identically, observe >= 1 worker death and >= 1     *)
(*      requeue, and leave a Chrome trace (fabric_trace.json)           *)
(*   2. master with no workers at all — must degrade to the in-process  *)
(*      pool (not hang) and still render byte-identically               *)
(* Neither fabric pass may count a corrupt frame.                       *)
(* ------------------------------------------------------------------ *)

let check_fabric opts =
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
  Printf.eprintf "pass 0 (serial, in-process)...\n%!";
  let out0 = sweep_tables_string (E.sweep ()) in
  Printf.eprintf "pass 1 (fabric: 3 workers, 1 chaos-killed mid-sweep)...\n%!";
  let cache_dir =
    if opts.o_cache_dir = "_autocfd_cache" then "_autocfd_cache.fabric"
    else opts.o_cache_dir
  in
  let cache = Sched.Cache.create ~dir:cache_dir () in
  Sched.Cache.clear cache;
  let cfg =
    { Sched.Fabric.default_cfg with Sched.Fabric.fb_chaos_kill = Some 3 }
  in
  let fabric = make_fabric ~cfg 3 in
  let tracer = Autocfd_obs.Trace.create () in
  let sw = E.sweep ~cache ~tracer ~fabric () in
  let out1 = sweep_tables_string sw in
  let st = Sched.Fabric.stats fabric in
  prerr_string (Autocfd.Report.fabric_summary st);
  Sched.Cache.write_atomic ~path:"fabric_trace.json"
    (Autocfd_obs.Chrome.to_string tracer);
  Printf.eprintf "wrote fabric_trace.json\n%!";
  Sched.Fabric.shutdown fabric;
  if out1 <> out0 then
    fail "FAIL: fabric sweep diverged from the serial rendering";
  if st.Sched.Fabric.fs_worker_deaths < 1 then
    fail "FAIL: chaos kill did not register a worker death";
  if st.Sched.Fabric.fs_requeues < 1 then
    fail "FAIL: the killed worker's lease was not requeued";
  if st.Sched.Fabric.fs_degraded then
    fail "FAIL: the 3-worker pass unexpectedly degraded";
  (* a SIGKILLed worker leaves at most a truncated frame, which is a
     closed connection, not a corrupt one *)
  if st.Sched.Fabric.fs_corrupt_frames > 0 then
    fail "FAIL: the 3-worker pass saw %d corrupt frame(s)"
      st.Sched.Fabric.fs_corrupt_frames;
  Printf.eprintf "pass 2 (fabric: no workers, short grace)...\n%!";
  let cfg2 = { Sched.Fabric.default_cfg with Sched.Fabric.fb_grace = 0.3 } in
  let fabric2 = make_fabric ~cfg:cfg2 0 in
  let sw2 = E.sweep ~fabric:fabric2 () in
  let out2 = sweep_tables_string sw2 in
  let st2 = Sched.Fabric.stats fabric2 in
  Sched.Fabric.shutdown fabric2;
  if out2 <> out0 then
    fail "FAIL: degraded sweep diverged from the serial rendering";
  if not st2.Sched.Fabric.fs_degraded then
    fail "FAIL: worker-less sweep did not report degradation";
  if st2.Sched.Fabric.fs_corrupt_frames > 0 then
    fail "FAIL: the worker-less pass saw %d corrupt frame(s)"
      st2.Sched.Fabric.fs_corrupt_frames;
  Printf.printf
    "OK fabric: 3 passes byte-identical; chaos pass survived %d worker \
     death(s) with %d requeue(s) and %d retries; worker-less pass degraded \
     to the in-process pool\n"
    st.Sched.Fabric.fs_worker_deaths st.Sched.Fabric.fs_requeues
    st.Sched.Fabric.fs_retries

let () =
  let opts = parse_opts () in
  (* the baseline options operate on the JSON document, so they imply the
     json verb unless another was given explicitly *)
  let opts =
    if (opts.o_check_regress || opts.o_update_baseline) && opts.o_verb = "all"
    then { opts with o_verb = "--json" }
    else opts
  in
  let with_sweep f =
    let fabric =
      if opts.o_workers > 0 then Some (make_fabric opts.o_workers) else None
    in
    let sw = make_sweep ?fabric opts in
    f sw;
    report_sweep ?fabric sw
  in
  match opts.o_verb with
  | "table1" -> with_sweep (fun sw -> print_string (table1_string sw))
  | "table2" -> with_sweep (fun sw -> print_string (table2_string sw))
  | "table3" -> with_sweep (fun sw -> print_string (table3_string sw))
  | "table4" -> with_sweep (fun sw -> print_string (table4_string sw))
  | "table5" -> with_sweep (fun sw -> print_string (table5_string sw))
  | "ablation" -> print_ablation ()
  | "advisor" -> print_advisor ()
  | "validate" -> with_sweep (fun sw -> print_string (validation_string sw))
  | "engine" ->
      with_sweep (fun sw ->
          let rows = E.engine_bench ~sweep:sw () in
          print_string (E.render_engine rows);
          print_newline ();
          print_string (E.render_engine_coverage rows);
          (* --check: CI smoke mode.  Fails if any engine disagrees or
             fused kernels stop paying for themselves (the fused speedup
             over the tree walker drops below the unfused closure IR's). *)
          if opts.o_check then
            List.iter
              (fun (r : E.engine_row) ->
                if not r.E.er_identical then begin
                  Printf.eprintf "FAIL %s: engines disagree\n" r.E.er_program;
                  exit 1
                end;
                if not r.E.er_domains_identical then begin
                  Printf.eprintf
                    "FAIL %s: domains engine diverged from the simulator\n"
                    r.E.er_program;
                  exit 1
                end;
                if r.E.er_fused_speedup < r.E.er_speedup then begin
                  Printf.eprintf
                    "FAIL %s: fused speedup %.2f below unfused speedup %.2f\n"
                    r.E.er_program r.E.er_fused_speedup r.E.er_speedup;
                  exit 1
                end;
                (* the point of running for real: parallel wall-clock must
                   beat the single-threaded fused simulation convincingly
                   on the 3-d app (4 ranks -> at least 2x).  Only
                   enforceable when the host actually has the cores: on
                   fewer, 4 domains timeslice and the floor is vacuous *)
                let cores = Domain.recommended_domain_count () in
                if r.E.er_program = "aerofoil" && cores >= 4 then begin
                  if r.E.er_domains_speedup < 2.0 then begin
                    Printf.eprintf
                      "FAIL %s: domains speedup %.2fx below the 2x floor \
                       (%d cores)\n"
                      r.E.er_program r.E.er_domains_speedup cores;
                    exit 1
                  end
                end
                else if r.E.er_program = "aerofoil" then
                  Printf.printf
                    "SKIP %s: 2x domains floor needs >= 4 cores, host has \
                     %d\n"
                    r.E.er_program cores;
                Printf.printf
                  "OK %s: fused %.2fx >= unfused %.2fx, domains %.2fx \
                   wall-clock, results identical\n"
                  r.E.er_program r.E.er_fused_speedup r.E.er_speedup
                  r.E.er_domains_speedup)
              rows;
          (* coverage-manifest sub-gate: a nest that was fused in the
             committed COVERAGE.json must never fall back again *)
          if opts.o_check then
            List.iter
              (fun (r : E.engine_row) ->
                if not r.E.er_fission_identical then begin
                  Printf.eprintf
                    "FAIL %s: loop fission changed program state\n"
                    r.E.er_program;
                  exit 1
                end)
              rows;
          if opts.o_check || opts.o_update_coverage then coverage_gate opts)
  | "coverage" ->
      print_string (E.render_coverage_fission ());
      coverage_gate opts
  | "chaos" ->
      with_sweep (fun sw ->
          let rows = E.chaos_bench ~sweep:sw () in
          print_string (E.render_chaos rows);
          (* --check: CI smoke mode.  Every schedule in the bench is
             recoverable, so any divergence is a transport/recovery bug; the
             overhead ceiling catches retransmit storms and checkpoint
             regressions. *)
          if opts.o_check then begin
            let max_overhead = 4.0 in
            List.iter
              (fun (r : E.chaos_row) ->
                if not r.E.ch_identical then begin
                  Printf.eprintf
                    "FAIL %s/%s: result diverged from fault-free run\n"
                    r.E.ch_program r.E.ch_schedule;
                  exit 1
                end;
                if r.E.ch_overhead > max_overhead then begin
                  Printf.eprintf
                    "FAIL %s/%s: overhead %.2fx above budget %.1fx\n"
                    r.E.ch_program r.E.ch_schedule r.E.ch_overhead
                    max_overhead;
                  exit 1
                end;
                Printf.printf "OK %s/%s: identical, overhead %.2fx\n"
                  r.E.ch_program r.E.ch_schedule r.E.ch_overhead)
              rows
          end)
  | "tables" ->
      if opts.o_check then check_tables opts
      else with_sweep all_tables
  | "tune" ->
      if opts.o_check then check_tune opts
      else
        with_sweep (fun sw ->
            print_string (tune_string ~grid:opts.o_grid sw))
  | "worker" -> run_worker opts
  | "fabric" ->
      if opts.o_check then check_fabric opts
      else begin
        let n = if opts.o_workers > 0 then opts.o_workers else 3 in
        let fabric = make_fabric n in
        let sw = make_sweep ~fabric opts in
        print_string (sweep_tables_string sw);
        report_sweep ~fabric sw
      end
  | "--json" | "json" -> write_json opts
  | "micro" -> micro ()
  | "all" ->
      with_sweep all_tables;
      print_newline ();
      print_endline "Micro-benchmarks (Bechamel):";
      micro ()
  | _ -> usage ()
