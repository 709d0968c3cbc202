(** The Auto-CFD pre-compiler command line.

    {v
    autocfd analyze file.f --parts 4x1x1     dependency/sync analysis report
    autocfd analyze file.f --report          full markdown report (incl. the
                                             measured per-rank / per-sync tables)
    autocfd parallelize file.f --parts 2x2   emit the SPMD program
    autocfd run file.f --parts 2x2 [--json]  run sequential vs simulated SPMD
    autocfd trace file.f --parts 2x2 \
        --out trace.json                     profile the simulated execution:
                                             Chrome trace_event JSON (load in
                                             Perfetto / chrome://tracing), plus
                                             --metrics m.json for the compact
                                             per-rank / per-sync metrics
    autocfd profile file.f --parts 2x2       kernel-level profile: hot-nest
                                             table (top-N by self time, share
                                             of compute, flop throughput),
                                             per-sync-point latency histograms
                                             and pool utilization; --json /
                                             --prom for machine-readable and
                                             Prometheus output, --check for
                                             the >= 95% attribution gate
    autocfd tables [1-5|all] [--json]        regenerate the paper's tables
    autocfd tune file.f [--grid wide]        auto-search the configuration
                                             space (rank count x partition
                                             shape x sync combining x fission
                                             x engine/fusion): winner plus
                                             Pareto frontier over predicted
                                             time / comm volume / memory
    autocfd demo [aerofoil|sprayer]          dump a bundled case study source

    Every program-running verb accepts --spec FILE (a Runspec JSON
    document) as the single source of configuration; individual flags
    override single fields, and run --json echoes the resolved spec.
    v} *)

open Cmdliner
module D = Autocfd.Driver
module A = Autocfd_analysis
module S = Autocfd_syncopt
module Obs = Autocfd_obs

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_parts s =
  try
    let parts =
      String.split_on_char 'x' (String.lowercase_ascii s)
      |> List.map String.trim |> List.map int_of_string |> Array.of_list
    in
    if Array.length parts = 0 || Array.exists (fun p -> p < 1) parts then
      failwith "bad";
    Ok parts
  with _ ->
    Error (`Msg (Printf.sprintf "bad partition spec %S (expected e.g. 4x1x1)" s))

let parts_conv =
  Arg.conv
    ( parse_parts,
      fun ppf parts ->
        Format.pp_print_string ppf
          (String.concat "x" (Array.to_list (Array.map string_of_int parts)))
    )

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Sequential Fortran CFD source file (with c\\$acfd directives).")

let parts_arg =
  Arg.(value & opt (some parts_conv) None
       & info [ "p"; "parts" ] ~docv:"PARTS"
           ~doc:"Partition shape, e.g. 4x1x1. Default: automatic for --nprocs.")

let nprocs_arg =
  Arg.(value & opt (some int) None
       & info [ "n"; "nprocs" ] ~docv:"N"
           ~doc:"Number of processors for the automatic partition search \
                 (default 4, or whatever --spec says).")

let fission_arg =
  Arg.(value & flag
       & info [ "no-fission" ]
           ~doc:"Disable the loop-fission pass (mixed DO nests are not \
                 distributed into independent sub-nests before analysis \
                 and execution).")

let spec_arg =
  Arg.(value & opt (some file) None
       & info [ "spec" ] ~docv:"FILE"
           ~doc:"Runspec JSON file: the single source of configuration \
                 (engine, partition shape or rank count, sync combining, \
                 fission, fusion, faults...).  Command-line flags override \
                 individual fields.  `run --json` echoes the resolved \
                 spec, so any run's output names the spec that reproduces \
                 it.")

(* one resolved Runspec per invocation: --spec FILE (default
   Runspec.default), then each explicitly given flag overrides its
   field *)
let resolve_spec ?parts ?nprocs ?(no_fission = false) ?engine spec_file =
  let base =
    match spec_file with
    | None -> Autocfd.Runspec.default
    | Some path -> (
        match Autocfd.Runspec.of_json (Obs.Json.of_string (read_file path))
        with
        | spec -> spec
        | exception Obs.Json.Parse_error msg ->
            Printf.eprintf "autocfd: bad runspec %s: %s\n" path msg;
            exit 1)
  in
  let ( |? ) v f = match v with Some x -> f x | None -> Fun.id in
  base
  |> (nprocs |? Autocfd.Runspec.with_nprocs)
  |> (parts |? fun p -> Autocfd.Runspec.with_parts (Some p))
  |> (if no_fission then Autocfd.Runspec.with_fission false else Fun.id)
  |> (engine |? Autocfd.Runspec.with_engine)

let load_and_plan spec file =
  let t = D.load ~spec (read_file file) in
  (t, D.plan ~spec t)

let shape parts =
  String.concat " x " (Array.to_list (Array.map string_of_int parts))

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)

let analyze file spec_file parts nprocs no_fission report =
  let spec = resolve_spec ?parts ?nprocs ~no_fission spec_file in
  if report then
    let _, plan = load_and_plan spec file in
    print_string (Autocfd.Report.markdown plan)
  else
  let t, plan = load_and_plan spec file in
  let gi = t.D.gi in
  Format.printf "flow field: %a@." A.Grid_info.pp gi;
  Format.printf "partition:  %s (%d subtasks)@."
    (shape (Autocfd_partition.Topology.parts plan.D.topo))
    (Autocfd_partition.Topology.nranks plan.D.topo);
  Format.printf "@.field loop heads:@.";
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
        | A.Mirror.Serial -> "serial (replicated)"
        | A.Mirror.Block -> "block-parallel"
        | A.Mirror.Pipeline dims ->
            Printf.sprintf "mirror-image pipeline on dims {%s}"
              (String.concat ","
                 (List.map (fun (d, _) -> string_of_int d) dims))
      in
      Format.printf "  line %-5d do %-8s -> %-40s [%s]@."
        s.A.Field_loop.fs_loop.A.Loops.lp_line
        s.A.Field_loop.fs_loop.A.Loops.lp_var strat_str types)
    plan.D.summaries plan.D.strategies;
  Format.printf "@.S_LDP: %d dependent pairs (%d self-dependent)@."
    (List.length plan.D.sldp.A.Sldp.pairs)
    (List.length (A.Sldp.self_pairs plan.D.sldp));
  Format.printf
    "synchronization points: %d before optimization, %d after (%.0f%% \
     reduction)@."
    plan.D.opt.S.Optimizer.before plan.D.opt.S.Optimizer.after
    (100. *. S.Optimizer.reduction_pct plan.D.opt);
  Format.printf "@.combined synchronization points:@.";
  List.iteri
    (fun i (g : S.Combine.group) ->
      Format.printf "  #%d: %d regions merged, %d halo transfers@." (i + 1)
        (List.length g.S.Combine.gr_regions)
        (List.length g.S.Combine.gr_transfers))
    plan.D.opt.S.Optimizer.groups

let parallelize file spec_file parts nprocs no_fission mpi output =
  let spec = resolve_spec ?parts ?nprocs ~no_fission spec_file in
  let _, plan = load_and_plan spec file in
  let text = if mpi then D.mpi_source plan else D.spmd_source plan in
  match output with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path

(* The run verb goes through the sweep scheduler as a single job, so a
   repeated `autocfd run` of an unchanged source is a cache hit: the
   stored result document carries everything both renderings and the
   divergence exit code need. *)
let run_cmd file spec_file parts nprocs no_fission engine json jobs use_cache
    cache_dir =
  let module J = Obs.Json in
  let module Sched = Autocfd_sched in
  let source = read_file file in
  let tracer = if json then Some (Obs.Trace.create ()) else None in
  let run_spec =
    Autocfd.Runspec.with_tracer tracer
      (resolve_spec ?parts ?nprocs ~no_fission ?engine spec_file)
  in
  let engine = run_spec.Autocfd.Runspec.engine in
  let job =
    Sched.Job.make
      ~label:(Printf.sprintf "run %s" (Filename.basename file))
      (* the serialized resolved spec IS the run-describing half of the
         key: one JSON value names everything that shapes the result *)
      ~key:
        (J.Obj
           [
             ("verb", J.Str "run");
             ("spec", Autocfd.Runspec.to_json run_spec);
             ("src", J.Str (Sched.Job.digest source));
           ])
      (fun () ->
        let t = D.load ~spec:run_spec source in
        let plan = D.plan ~spec:run_spec t in
        let seq = D.run_seq ~spec:run_spec t in
        let par = D.run ~spec:run_spec plan in
        (* a Domains run is additionally held to bit-identity against
           the simulated cluster (the CI equivalence gate) *)
        let bit_identical =
          match engine with
          | Autocfd_interp.Spmd.Domains ->
              let reference =
                D.run
                  ~spec:
                    Autocfd.Runspec.(
                      run_spec
                      |> with_engine Autocfd_interp.Spmd.Fused
                      |> with_tracer None)
                  plan
              in
              J.Bool (Autocfd.Experiments.program_state_identical reference par)
          | _ -> J.Null
        in
        let stats = par.Autocfd_interp.Spmd.stats in
        let divergence = D.max_divergence seq par in
        let worst =
          List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 divergence
        in
        let strs l = J.List (List.map (fun s -> J.Str s) l) in
        J.Obj
          [
            ("schema", J.Str "autocfd-run/2");
            ("spec", Autocfd.Runspec.to_json run_spec);
            ("ranks", J.Int (Autocfd_partition.Topology.nranks plan.D.topo));
            ("engine", J.Str (Autocfd.Runspec.engine_to_string engine));
            ("bit_identical", bit_identical);
            ("seq_output", strs seq.D.sq_output);
            ("output", strs par.Autocfd_interp.Spmd.output);
            ("messages", J.Int stats.Autocfd_mpsim.Sim.messages);
            ("bytes", J.Int stats.Autocfd_mpsim.Sim.bytes);
            ("collectives", J.Int stats.Autocfd_mpsim.Sim.collectives);
            ( "divergence",
              J.Obj (List.map (fun (n, d) -> (n, J.Float d)) divergence) );
            ("equivalent", J.Bool (worst < 1e-9));
            ( "metrics",
              match tracer with
              | Some tr -> Obs.Metrics.to_json (Obs.Metrics.of_trace tr)
              | None -> J.Null );
          ])
  in
  let cache =
    if use_cache then
      try Some (Sched.Cache.create ~dir:cache_dir ())
      with Sys_error msg ->
        Printf.eprintf "autocfd: unusable cache directory: %s\n" msg;
        exit 1
    else None
  in
  let results, stats = Sched.Pool.run ~jobs ?cache [ job ] in
  Printf.eprintf "scheduler: %d hit(s), %d miss(es)\n%!"
    stats.Sched.Pool.ps_hits stats.Sched.Pool.ps_misses;
  let doc =
    match results.(0) with
    | Ok doc -> doc
    | Error msg ->
        Printf.eprintf "run failed: %s\n" msg;
        exit 1
  in
  let field name =
    match J.member name doc with
    | Some v -> v
    | None ->
        Printf.eprintf "corrupt run document: missing %S\n" name;
        exit 1
  in
  let str_list name =
    match field name with
    | J.List l ->
        List.filter_map (function J.Str s -> Some s | _ -> None) l
    | _ -> []
  in
  let int_field name = match field name with J.Int i -> i | _ -> 0 in
  let equivalent = field "equivalent" = J.Bool true in
  (* absent on pre-engine cached documents and non-domains runs *)
  let bit_identical =
    match J.member "bit_identical" doc with
    | Some (J.Bool b) -> Some b
    | _ -> None
  in
  let divergence =
    match field "divergence" with
    | J.Obj fields ->
        List.map (fun (n, d) -> (n, J.to_float_exn d)) fields
    | _ -> []
  in
  (if json then
     (* the stored document minus the human-only sequential echo, plus
        this invocation's scheduler statistics (not cached: they describe
        the pool run that produced or fetched the document) *)
     let doc =
       match doc with
       | J.Obj fields ->
           J.Obj
             (List.filter (fun (n, _) -> n <> "seq_output") fields
             @ [
                 ( "sched",
                   Autocfd.Report.sched_summary_json [ ("run", stats) ] );
               ])
       | d -> d
     in
     print_endline (J.pretty doc)
   else begin
     Format.printf "sequential output:@.";
     List.iter (Format.printf "  %s@.") (str_list "seq_output");
     Format.printf "parallel output (%d simulated ranks):@."
       (int_field "ranks");
     List.iter (Format.printf "  %s@.") (str_list "output");
     Format.printf "messages: %d (%d bytes), collectives: %d@."
       (int_field "messages") (int_field "bytes") (int_field "collectives");
     Format.printf "max |sequential - parallel| per status array:@.";
     List.iter
       (fun (name, d) -> Format.printf "  %-10s %.3g@." name d)
       divergence;
     (match bit_identical with
     | Some true ->
         Format.printf "PASS: domains run bit-identical to the simulator@."
     | Some false ->
         Format.printf "FAIL: domains run diverges from the simulator@."
     | None -> ());
     if equivalent then Format.printf "PASS: numerically equivalent@."
     else
       Format.printf "FAIL: parallel run diverges (%.3g)@."
         (List.fold_left (fun acc (_, d) -> Float.max acc d) 0.0 divergence)
   end);
  if (not equivalent) || bit_identical = Some false then exit 1

(* trace and profile charge the reference machine's calibrated costs
   unless the spec already names a machine *)
let with_default_machine spec =
  match spec.Autocfd.Runspec.machine with
  | Some _ -> spec
  | None ->
      Autocfd.Runspec.with_machine
        (Some Autocfd_perfmodel.Model.pentium_cluster) spec

let trace_cmd file spec_file parts nprocs no_fission engine out metrics_out =
  let tracer = Obs.Trace.create () in
  let spec =
    resolve_spec ?parts ?nprocs ~no_fission ?engine spec_file
    |> with_default_machine
    |> Autocfd.Runspec.with_tracer (Some tracer)
  in
  let _, plan = load_and_plan spec file in
  let result = D.run ~spec plan in
  write_file out (Obs.Chrome.to_string tracer);
  let m = Obs.Metrics.of_trace tracer in
  (match metrics_out with
  | Some path -> write_file path (Obs.Json.pretty (Obs.Metrics.to_json m))
  | None -> ());
  let stats = result.Autocfd_interp.Spmd.stats in
  Printf.printf
    "%d ranks, %d trace events; %.3f s simulated (%d messages, %d bytes)\n"
    (Obs.Trace.nranks tracer) (Obs.Trace.length tracer)
    stats.Autocfd_mpsim.Sim.elapsed stats.Autocfd_mpsim.Sim.messages
    stats.Autocfd_mpsim.Sim.bytes;
  Array.iter
    (fun (r : Obs.Metrics.rank_row) ->
      Printf.printf
        "  rank %d: compute %.3f s, comm %.3f s, blocked %.3f s\n"
        r.Obs.Metrics.rr_rank r.Obs.Metrics.rr_compute r.Obs.Metrics.rr_comm
        r.Obs.Metrics.rr_blocked)
    m.Obs.Metrics.ranks

let profile_cmd file spec_file parts nprocs no_fission engine top json prom
    check min_cov =
  let spec =
    resolve_spec ?parts ?nprocs ~no_fission ?engine spec_file
    |> with_default_machine
  in
  let _, plan = load_and_plan spec file in
  let label = Printf.sprintf "profile %s" (Filename.basename file) in
  let p = Autocfd.Profile.run ~spec ~label plan in
  if json then
    print_endline (Obs.Json.pretty (Autocfd.Profile.to_json ~top p))
  else if prom then print_string (Autocfd.Profile.to_prometheus p)
  else print_string (Autocfd.Profile.render ~top p);
  if check then begin
    let cov = Autocfd.Profile.coverage p in
    if cov < min_cov then begin
      Printf.eprintf
        "FAIL: %.2f%% of compute time attributed to named nests (need >= \
         %.2f%%)\n"
        (100. *. cov) (100. *. min_cov);
      exit 1
    end
    else
      Printf.printf
        "OK: %.2f%% of compute time attributed to %d named nests\n"
        (100. *. cov)
        (List.length p.Autocfd.Profile.pf_metrics.Obs.Metrics.kernels)
  end

let report file spec_file parts nprocs no_fission output =
  let spec = resolve_spec ?parts ?nprocs ~no_fission spec_file in
  let _, plan = load_and_plan spec file in
  let text = Autocfd.Report.markdown plan in
  match output with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" path

(* sweep wiring shared by the tables and tune verbs: a persistent cache
   unless disabled, plus an optional distributed fabric with [workers]
   spawned worker processes *)
let make_sweep ~jobs ~workers ~use_cache ~cache_dir =
  let module Fabric = Autocfd_sched.Fabric in
  let cache =
    if use_cache then
      try Some (Autocfd_sched.Cache.create ~dir:cache_dir ())
      with Sys_error msg ->
        Printf.eprintf "autocfd: unusable cache directory: %s\n" msg;
        exit 1
    else None
  in
  let fabric =
    if workers <= 0 then None
    else begin
      let sock =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "autocfd-fabric-%d.sock" (Unix.getpid ()))
      in
      let fb = Fabric.create ~listen:(Fabric.Unix_path sock) () in
      let addr = Fabric.addr_to_string (Fabric.addr fb) in
      for _ = 1 to workers do
        ignore
          (Fabric.spawn_worker fb
             ~argv:[| Sys.executable_name; "worker"; "--connect"; addr |])
      done;
      Some fb
    end
  in
  (Autocfd.Experiments.sweep ~jobs ?cache ?fabric (), fabric)

let finish_sweep sw fabric =
  let module E = Autocfd.Experiments in
  let module Fabric = Autocfd_sched.Fabric in
  let stats = E.sweep_stats sw in
  if stats <> [] then
    prerr_string
      (Autocfd.Report.sched_summary ~stale:(E.sweep_stale sw) stats);
  match fabric with
  | Some fb ->
      prerr_string (Autocfd.Report.fabric_summary (Fabric.stats fb));
      Fabric.shutdown fb
  | None -> ()

let tables which json jobs workers use_cache cache_dir =
  let module E = Autocfd.Experiments in
  let sw, fabric = make_sweep ~jobs ~workers ~use_cache ~cache_dir in
  (if json then print_endline (Obs.Json.pretty (E.tables_json ~sweep:sw ()))
   else
     let print1 () = print_string (E.render_table1 (E.table1 ~sweep:sw ())) in
     let print2 () =
       print_string
         (E.render_perf ~title:"Table 2: aerofoil 99x41x13"
            (E.table2 ~sweep:sw ()))
     in
     let print3 () =
       print_string
         (E.render_perf ~title:"Table 3: sprayer 300x100"
            (E.table3 ~sweep:sw ()))
     in
     let print4 () = print_string (E.render_table4 (E.table4 ~sweep:sw ())) in
     let print5 () = print_string (E.render_table5 (E.table5 ~sweep:sw ())) in
     match which with
     | "1" -> print1 ()
     | "2" -> print2 ()
     | "3" -> print3 ()
     | "4" -> print4 ()
     | "5" -> print5 ()
     | "all" ->
         print1 (); print_newline ();
         print2 (); print_newline ();
         print3 (); print_newline ();
         print4 (); print_newline ();
         print5 ()
     | other -> Printf.eprintf "unknown table %S\n" other; exit 1);
  finish_sweep sw fabric

(* auto-tune one program: every point of the configuration product
   space, dispatched as cached (and optionally distributed) jobs, pruned
   to the Pareto frontier *)
let tune file spec_file grid json jobs workers use_cache cache_dir =
  let module E = Autocfd.Experiments in
  let module T = Autocfd.Tune in
  let sw, fabric = make_sweep ~jobs ~workers ~use_cache ~cache_dir in
  let base = resolve_spec spec_file in
  let source = read_file file in
  (* wide-grid Domains points execute the program for real; narrower
     grids are pure model predictions *)
  let measure_source = match grid with T.Wide -> Some source | _ -> None in
  let r =
    E.tune_program ~grid ~base ~sweep:sw ?measure_source
      ~program:(Filename.basename file) ~source ()
  in
  (if json then print_endline (Obs.Json.pretty (T.result_to_json r))
   else print_string (T.render r));
  finish_sweep sw fabric

(* one fabric worker process: connect back to the master, resolve each
   assigned spec through the shared Experiments dispatcher, stream the
   results home.  Normally spawned by the master itself (tables
   --workers / bench --workers), but any host that can reach the socket
   may contribute. *)
let worker connect id =
  let module Fabric = Autocfd_sched.Fabric in
  match Fabric.addr_of_string connect with
  | Error msg ->
      Printf.eprintf "autocfd worker: %s\n" msg;
      exit 1
  | Ok addr -> (
      match
        Fabric.serve ~connect:addr ?id
          ~resolve:Autocfd.Experiments.exec_spec ()
      with
      | Ok () -> ()
      | Error msg ->
          Printf.eprintf "autocfd worker: %s\n" msg;
          exit 1)

let demo which =
  match which with
  | "aerofoil" -> print_string (Autocfd_apps.Aerofoil.source ())
  | "sprayer" -> print_string (Autocfd_apps.Sprayer.source ())
  | "cavity" -> print_string (Autocfd_apps.Cavity.source ())
  | other ->
      Printf.eprintf "unknown demo %S (aerofoil|sprayer|cavity)\n" other;
      exit 1

(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"Emit the full markdown report instead of the plain-text \
                   summary (same output as the 'report' verb, including the \
                   measured per-rank time breakdown and per-sync-point \
                   traffic tables).")
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Dependency and synchronization analysis report")
    Term.(const analyze $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ report)

let parallelize_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file.")
  in
  let mpi =
    Arg.(value & flag
         & info [ "mpi" ]
             ~doc:"Emit complete Fortran 77 + MPI source (with generated \
                   pack/exchange subroutines) instead of the annotated \
                   SPMD form.")
  in
  Cmd.v
    (Cmd.info "parallelize"
       ~doc:"Transform a sequential CFD program into an SPMD program")
    Term.(const parallelize $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ mpi $ output)

let json_flag ~what =
  Arg.(value & flag & info [ "json" ] ~doc:("Emit " ^ what ^ " as JSON."))

let jobs_arg =
  Arg.(value & opt int (Autocfd_sched.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the sweep scheduler (default: all \
                 recommended cores).")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the persistent content-addressed result cache.")

let cache_dir_arg =
  Arg.(value & opt string "_autocfd_cache"
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Result cache directory (default: _autocfd_cache).")

let engine_arg =
  let parse s =
    match Autocfd.Runspec.engine_of_string s with
    | e -> Ok e
    | exception Obs.Json.Parse_error _ ->
        Error (`Msg (Printf.sprintf "bad engine %S (tree|fused|domains)" s))
  in
  let print ppf e =
    Format.pp_print_string ppf (Autocfd.Runspec.engine_to_string e)
  in
  Arg.(value & opt (some (conv (parse, print))) None
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: tree (the reference tree walker), fused \
                 (default, or whatever --spec says: the compiled closure IR \
                 with fused kernels unless the spec sets \"fuse\": false) \
                 or domains (the same closure IR run for real, one OCaml 5 \
                 domain per rank in shared memory).  The fused and domains \
                 engines emit per-nest kernel summaries.")

let run_cmd_ =
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute the program sequentially and on the simulated cluster \
          (or for real on OCaml 5 domains with --engine domains, which \
          additionally gates on bit-identity against the simulator), and \
          compare the results (memoized: a repeated run of an unchanged \
          source is served from the result cache)")
    Term.(const run_cmd $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ engine_arg
          $ json_flag ~what:"the comparison and per-rank metrics"
          $ jobs_arg
          $ Term.app (const not) no_cache_arg
          $ cache_dir_arg)

let trace_cmd_ =
  let out =
    Arg.(value & opt string "trace.json"
         & info [ "o"; "out" ] ~docv:"OUT"
             ~doc:"Chrome trace_event output file (load in Perfetto or \
                   chrome://tracing).")
  in
  let metrics =
    Arg.(value & opt (some string) None
         & info [ "metrics" ] ~docv:"FILE"
             ~doc:"Also write the compact per-rank / per-sync-point metrics \
                   JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Profile the program on the simulated cluster: execute it with the \
          reference machine's calibrated network and per-flop cost while \
          recording every compute, send/recv, collective and blocked \
          interval, then export a Chrome trace_event JSON timeline (one \
          track per rank) plus optional machine-readable metrics.  With \
          --engine domains the timeline is the real shared-memory \
          execution's wall clock on a dedicated process lane")
    Term.(const trace_cmd $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ engine_arg $ out $ metrics)

let profile_cmd_ =
  let top =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"N"
             ~doc:"Rows of the hot-nest table (default 10).")
  in
  let prom =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"Emit the unified metrics registry in Prometheus text \
                   exposition format instead of the human-readable profile.")
  in
  let check =
    Arg.(value & flag
         & info [ "check" ]
             ~doc:"Exit nonzero unless at least $(b,--min-coverage) of the \
                   virtual compute time is attributed to named field-loop \
                   nests (the CI attribution gate).")
  in
  let min_cov =
    Arg.(value & opt float 0.95
         & info [ "min-coverage" ] ~docv:"FRAC"
             ~doc:"Attribution threshold for --check (default 0.95).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Kernel-level profile of the program on the simulated reference \
          cluster: run it through the sweep pool with tracing enabled, then \
          print the hot-nest table (top-N field-loop nests by self time, \
          with share of total compute and flop/byte throughput), \
          per-sync-point latency histograms and scheduler utilization.  \
          --json emits the full machine-readable profile, --prom the \
          unified metrics registry in Prometheus text format.")
    Term.(const profile_cmd $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ engine_arg
          $ top
          $ json_flag ~what:"the full profile document"
          $ prom $ check $ min_cov)

let report_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Emit a markdown pre-compilation report (loops, S_LDP, \
             synchronization points, modelled performance)")
    Term.(const report $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ output)

let workers_arg =
  Arg.(value & opt int 0
       & info [ "workers" ] ~docv:"N"
           ~doc:"Spawn $(docv) fabric worker processes and run the sweep \
                 over the distributed fabric (leases, retries, crash \
                 recovery) instead of the in-process pool.  0 (default) \
                 stays in-process.")

let tables_cmd =
  let which =
    Arg.(value & pos 0 string "all" & info [] ~docv:"N" ~doc:"1-5 or 'all'.")
  in
  Cmd.v (Cmd.info "tables" ~doc:"Regenerate the paper's evaluation tables")
    Term.(const tables $ which
          $ json_flag ~what:"every table (1-5) plus model validation"
          $ jobs_arg $ workers_arg
          $ Term.app (const not) no_cache_arg
          $ cache_dir_arg)

let tune_cmd =
  let grid =
    let parse s =
      match Autocfd.Tune.grid_of_string s with
      | Ok g -> Ok g
      | Error msg -> Error (`Msg msg)
    in
    let print ppf g =
      Format.pp_print_string ppf (Autocfd.Tune.grid_to_string g)
    in
    Arg.(value & opt (conv (parse, print)) Autocfd.Tune.Default
         & info [ "grid" ] ~docv:"GRID"
             ~doc:"Search-space width: narrow (single smoke-test point), \
                   default (every rank count and feasible partition shape \
                   x sync-combining strategy) or wide (adds odd rank \
                   counts, fission/fusion ablations and the real Domains \
                   engine with measured wall clock).")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Auto-search the full configuration space of a program: every \
          rank count, feasible partition shape, synchronization-combining \
          strategy (and on the wide grid: fission/fusion ablations and \
          the real Domains engine) is one cached job through the sweep \
          scheduler; the result is the winning configuration plus the \
          Pareto frontier over predicted time, communication volume and \
          per-rank memory.  Each frontier row's spec is a complete \
          Runspec: feed it back with --spec to reproduce that exact run.")
    Term.(const tune $ file_arg $ spec_arg $ grid
          $ json_flag ~what:"the winner and Pareto frontier"
          $ jobs_arg $ workers_arg
          $ Term.app (const not) no_cache_arg
          $ cache_dir_arg)

let worker_cmd =
  let connect =
    Arg.(required & opt (some string) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Fabric master address: a Unix-domain socket path \
                   (unix:/path or /path) or host:port.")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"NAME"
             ~doc:"Worker name reported to the master (default: \
                   host/pid-derived).")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Run one fabric worker: connect to a sweep master, heartbeat \
          while executing each leased job spec, and stream result JSON \
          back in checksummed frames.  Exits nonzero with a one-line \
          diagnostic when the master is unreachable.")
    Term.(const worker $ connect $ id)

let demo_cmd =
  let which =
    Arg.(value & pos 0 string "sprayer"
         & info [] ~docv:"NAME" ~doc:"aerofoil, sprayer or cavity.")
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Print a bundled case-study Fortran source")
    Term.(const demo $ which)

let () =
  let doc = "Auto-CFD: parallelizing pre-compiler for Fortran CFD programs" in
  let info = Cmd.info "autocfd" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
                    [ analyze_cmd; parallelize_cmd; run_cmd_; trace_cmd_;
                      profile_cmd_; report_cmd; tables_cmd; tune_cmd;
                      worker_cmd; demo_cmd ]))
