(** The Auto-CFD pre-compiler command line.

    {v
    autocfd analyze file.f --parts 4x1x1     dependency/sync analysis report
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
    autocfd report file.f [-o OUT]           full markdown report (incl. the
                                             measured per-rank / per-sync
                                             tables)
    autocfd tables [1-5|validate|ablation|advisor|all]
                                             regenerate the paper's tables;
                                             --json for the BENCH_tables.json
                                             document, gated against a baseline
                                             by --check-regress; --check for
                                             the three-pass sweep/cache gate
    autocfd tune [file.f] [--grid wide]      auto-search the configuration
                                             space (rank count x partition
                                             shape x sync combining x fission
                                             x engine): winner plus
                                             Pareto frontier over predicted
                                             time / comm volume / memory; with
                                             no FILE, both case studies
                                             (--check: the tune gate)
    autocfd engine [--check]                 fused kernels on the simulator vs
                                             on real OCaml 5 domains
    autocfd coverage                         fused-kernel coverage before and
                                             after loop fission
    autocfd chaos [--check]                  seeded fault schedules vs the
                                             reliable transport
    autocfd fabric --check                   the distributed-sweep chaos gate
    autocfd worker --connect ADDR            one fabric worker process
    autocfd demo [aerofoil|sprayer|cavity]   dump a bundled case study source

    Every program-running verb accepts --spec FILE (a Runspec JSON
    document) as the single source of configuration; individual flags
    override single fields, and run --json echoes the resolved spec.
    Table output goes to stdout and is byte-identical for any --jobs value
    and for cold vs warm caches; scheduler statistics go to stderr.
    v} *)

open Cmdliner
module D = Autocfd.Driver
module E = Autocfd.Experiments
module A = Autocfd_analysis
module S = Autocfd_syncopt
module Obs = Autocfd_obs
module Sched = Autocfd_sched
module Loc = Autocfd_fortran.Loc

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* every file the CLI writes: readers see the old or the new complete
   file, never a prefix *)
let write_file ?(oc = stdout) path text =
  (try Sched.Cache.write_atomic ~path text
   with Sys_error msg -> fail "autocfd: cannot write %s: %s" path msg);
  Printf.fprintf oc "wrote %s\n%!" path

let load_json path =
  match Obs.Json.of_string (read_file path) with
  | doc -> doc
  | exception Sys_error _ -> fail "cannot read %s" path
  | exception Obs.Json.Parse_error msg -> fail "%s: malformed JSON: %s" path msg

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
                 fission, faults...).  Command-line flags override \
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

(* [f ()], or one "autocfd: FILE: ..." diagnostic and exit 1 when the
   frontend rejects FILE: a [Loc.Error] names its line, a [Failure] has
   none *)
let diagnosing file f =
  try f () with
  | Loc.Error _ as e -> fail "autocfd: %s: %s" file (Printexc.to_string e)
  | Failure msg -> fail "autocfd: %s: %s" file msg

let load_and_plan spec file =
  let t = diagnosing file (fun () -> D.load ~spec (read_file file)) in
  (t, D.plan ~spec t)

let shape parts =
  String.concat " x " (Array.to_list (Array.map string_of_int parts))

(* ------------------------------------------------------------------ *)

let analyze file spec_file parts nprocs no_fission =
  let spec = resolve_spec ?parts ?nprocs ~no_fission spec_file in
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
  | Some path -> write_file path text

let open_cache ~use_cache ~cache_dir =
  if use_cache then
    try Some (Sched.Cache.create ~dir:cache_dir ())
    with Sys_error msg ->
      Printf.eprintf "autocfd: unusable cache directory: %s\n" msg;
      exit 1
  else None

(* The run verb goes through the sweep scheduler as a single job, so a
   repeated `autocfd run` of an unchanged source is a cache hit: the
   stored result document carries everything both renderings and the
   divergence exit code need. *)
let run_cmd file spec_file parts nprocs no_fission engine json jobs use_cache
    cache_dir =
  let module J = Obs.Json in
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
        (* a frontend [Failure] becomes an unlocated [Loc.Error], so the
           pool reports it as the bare message *)
        let t =
          try D.load ~spec:run_spec source
          with Failure msg -> raise (Loc.Error (Loc.none, msg))
        in
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
              J.Bool (E.program_state_identical reference par)
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
  let cache = open_cache ~use_cache ~cache_dir in
  let results, stats = Sched.Pool.run ~jobs ?cache [ job ] in
  Printf.eprintf "scheduler: %d hit(s), %d miss(es)\n%!"
    stats.Sched.Pool.ps_hits stats.Sched.Pool.ps_misses;
  let doc =
    match results.(0) with
    | Ok doc -> doc
    | Error msg -> fail "autocfd: %s: %s" file msg
  in
  let field name =
    match J.member name doc with
    | Some v -> v
    | None -> fail "corrupt run document: missing %S" name
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
    "%d ranks, %d trace events; %.3f s %s (%d messages, %d bytes)\n"
    (Obs.Trace.nranks tracer) (Obs.Trace.length tracer)
    stats.Autocfd_mpsim.Sim.elapsed
    (if m.Obs.Metrics.wall then "wall clock" else "simulated")
    stats.Autocfd_mpsim.Sim.messages
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
    if cov < min_cov then
      fail
        "FAIL: %.2f%% of compute time attributed to named nests (need >= \
         %.2f%%)"
        (100. *. cov) (100. *. min_cov)
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
  | Some path -> write_file path text

(* ------------------------------------------------------------------ *)
(* The sweep behind every table-producing verb                         *)
(* ------------------------------------------------------------------ *)

type sweep_opts = {
  jobs : int;
  workers : int;  (** fabric worker processes; 0 stays in-process *)
  use_cache : bool;
  cache_dir : string;
}

let default_cache_dir = "_autocfd_cache"

(* a fabric master on a private Unix socket with [n] worker processes,
   each re-executing this binary's [worker] verb *)
let make_fabric ?cfg n =
  let module Fabric = Sched.Fabric in
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocfd-fabric-%d.sock" (Unix.getpid ()))
  in
  let fb = Fabric.create ?cfg ~listen:(Fabric.Unix_path sock) () in
  let argv =
    [| Sys.executable_name; "worker"; "--connect";
       Fabric.addr_to_string (Fabric.addr fb) |]
  in
  for _ = 1 to n do ignore (Fabric.spawn_worker fb ~argv) done;
  fb

(* [f] over one sweep; scheduler (and fabric) statistics go to stderr
   afterwards *)
let with_sweep o f =
  let cache = open_cache ~use_cache:o.use_cache ~cache_dir:o.cache_dir in
  let fabric = if o.workers > 0 then Some (make_fabric o.workers) else None in
  let sw = E.sweep ~jobs:o.jobs ?cache ?fabric () in
  let v = f sw in
  let stats = E.sweep_stats sw in
  if stats <> [] then
    prerr_string (Autocfd.Report.sched_summary ~stale:(E.sweep_stale sw) stats);
  Option.iter
    (fun fb ->
      prerr_string (Autocfd.Report.fabric_summary (Sched.Fabric.stats fb));
      Sched.Fabric.shutdown fb)
    fabric;
  v

(* a gate clears its cache first, so it takes a private directory unless
   --cache-dir names one *)
let gate_cache cache_dir suffix =
  let dir =
    if cache_dir = default_cache_dir then default_cache_dir ^ "." ^ suffix
    else cache_dir
  in
  let cache = Sched.Cache.create ~dir () in
  Sched.Cache.clear cache;
  cache

(* The three-pass gate of tables --check and tune --check: a serial
   uncached pass is the reference, and two parallel passes over a cleared
   cache, cold then warm, must render it byte for byte, the warm one
   entirely from cache hits.  Returns the reference value, the warm
   pass's hit count and the cold and warm wall times of [compute]. *)
let three_passes o ~what ~suffix ~render compute =
  let cache = gate_cache o.cache_dir suffix in
  let pass label sweep =
    Printf.eprintf "pass %s...\n%!" label;
    let t0 = Unix.gettimeofday () in
    let v = compute sweep in
    (v, render v, Unix.gettimeofday () -. t0, E.sweep_stats sweep)
  in
  let parallel i temp =
    pass
      (Printf.sprintf "%d (parallel --jobs %d, %s cache)" i o.jobs temp)
      (E.sweep ~jobs:o.jobs ~cache ())
  in
  let v0, out0, _, _ = pass "0 (serial, no cache)" (E.sweep ()) in
  let _, out1, t_cold, _ = parallel 1 "cold" in
  let _, out2, t_warm, stats = parallel 2 "warm" in
  if out1 <> out0 then
    fail "FAIL: cold parallel %s diverged from the serial rendering" what;
  if out2 <> out0 then
    fail "FAIL: warm-cache %s diverged from the serial rendering" what;
  let hits, misses =
    List.fold_left
      (fun (h, m) (_, (s : Sched.Pool.stats)) ->
        (h + s.Sched.Pool.ps_hits, m + s.Sched.Pool.ps_misses))
      (0, 0) stats
  in
  if misses > 0 then
    fail "FAIL: warm pass had %d cache misses (%d hits) — expected 100%% hits"
      misses hits;
  (v0, hits, t_cold, t_warm)

(* ------------------------------------------------------------------ *)
(* tables                                                              *)
(* ------------------------------------------------------------------ *)

(* the pooled tables, in print order: what the --check and fabric gates
   compare across passes *)
let pooled_tables =
  [
    ("1", fun sw -> E.render_table1 (E.table1 ~sweep:sw ()));
    ( "2",
      fun sw ->
        E.render_perf
          ~title:
            "Table 2: overall performance of case study 1 (aerofoil, \
             99 x 41 x 13; ours vs paper)"
          (E.table2 ~sweep:sw ()) );
    ( "3",
      fun sw ->
        E.render_perf
          ~title:
            "Table 3: overall performance of case study 2 (sprayer, \
             300 x 100; ours vs paper)"
          (E.table3 ~sweep:sw ()) );
    ("4", fun sw -> E.render_table4 (E.table4 ~sweep:sw ()));
    ("5", fun sw -> E.render_table5 (E.table5 ~sweep:sw ()));
    ("validate", fun sw -> E.render_validation (E.validate_model ~sweep:sw ()));
  ]

let render_tables tables sw =
  String.concat "\n" (List.map (fun (_, render) -> render sw) tables)

let sweep_tables = render_tables pooled_tables

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))

(* the paper's optimal combining (Fig. 6(b)) vs the suboptimal first-fit
   strategy (Fig. 6(c)) *)
let ablation () =
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
            name; shape parts;
            cell_int opt.D.opt.S.Optimizer.before;
            cell_int opt.D.opt.S.Optimizer.after;
            cell_int ff.D.opt.S.Optimizer.after;
          ])
      partitions
  in
  run (Autocfd_apps.Aerofoil.source ()) "aerofoil"
    [ [| 4; 1; 1 |]; [| 4; 4; 1 |]; [| 2; 2; 2 |] ];
  run (Autocfd_apps.Sprayer.source ()) "sprayer" [ [| 4; 1 |]; [| 4; 4 |] ];
  render table

(* the paper's minimal-communication partition choice (§4.1) vs the
   model-predicted best *)
let advisor () =
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
  render table

let all_tables =
  pooled_tables
  @ [ ("ablation", fun _ -> ablation ()); ("advisor", fun _ -> advisor ()) ]

let check_tables o =
  let _, hits, t_cold, t_warm =
    three_passes o ~what:"sweep" ~suffix:"check" ~render:Fun.id sweep_tables
  in
  let speedup = t_cold /. t_warm in
  if speedup < 5.0 then
    fail "FAIL: warm pass only %.1fx faster than cold (%.2fs vs %.2fs) — \
          expected at least 5x"
      speedup t_warm t_cold;
  Printf.printf
    "OK tables: 3 passes byte-identical, warm pass %d/%d hits, %.1fx \
     faster than cold (%.2fs vs %.2fs)\n"
    hits hits speedup t_warm t_cold

let tables which json check baseline check_regress update_baseline o =
  if check then check_tables o
  else if json || check_regress || update_baseline then begin
    let doc = with_sweep o (fun sw -> E.tables_json ~sweep:sw ()) in
    let text = Obs.Json.pretty doc ^ "\n" in
    print_string text;
    if update_baseline then write_file ~oc:stderr baseline text;
    if check_regress then begin
      let failures =
        Autocfd.Baseline.compare_tables ~baseline:(load_json baseline)
          ~current:doc ()
      in
      prerr_string (Autocfd.Baseline.render_failures failures);
      if failures <> [] then exit 1
    end
  end
  else
    print_string
      (with_sweep o (fun sw ->
           match which with
           | "all" -> render_tables all_tables sw
           | n -> (List.assoc n all_tables) sw))

(* ------------------------------------------------------------------ *)
(* tune                                                                *)
(* ------------------------------------------------------------------ *)

let render_tunes results =
  String.concat "\n" (List.map Autocfd.Tune.render results)

(* the tune gate: the three passes, then the tuned winner must not lose
   to any hand-picked Table 2/3 configuration of its program, and the
   reported frontier must contain no dominated entry *)
let check_tune o =
  let module T = Autocfd.Tune in
  (* the deterministic default grid whatever --grid says: wide-grid wall
     measurements would break byte-identity *)
  let results, hits, _, _ =
    three_passes o ~what:"tune" ~suffix:"tune" ~render:render_tunes
      (fun sweep -> E.tune_table ~grid:T.Default ~sweep ())
  in
  let sw = E.sweep () in
  let defaults =
    [ ("aerofoil", E.table2 ~sweep:sw ()); ("sprayer", E.table3 ~sweep:sw ()) ]
  in
  List.iter
    (fun (r : T.result) ->
      let w = r.T.tr_winner in
      List.iter
        (fun row ->
          match Obs.Json.member "partition" row with
          | Some (Obs.Json.Str parts)
            when w.T.te_metrics.T.tm_time > E.jf "time" row ->
              fail
                "FAIL %s: tuned winner %.1f s loses to the hand-picked %s \
                 row (%.1f s)"
                r.T.tr_program w.T.te_metrics.T.tm_time parts
                (E.jf "time" row)
          | _ -> ()  (* a faster winner, or the sequential reference row *))
        (List.assoc r.T.tr_program defaults);
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
  Printf.printf "OK tune: 3 passes byte-identical, warm pass %d/%d hits\n"
    hits hits

(* auto-tune one program, or both case studies when no FILE is given:
   every point of the configuration product space, dispatched as cached
   (and optionally distributed) jobs, pruned to the Pareto frontier *)
let tune file spec_file grid json check o =
  let module T = Autocfd.Tune in
  match file with
  | Some _ when check ->
      `Error (true, "--check gates the bundled case studies and takes no FILE")
  | None when spec_file <> None -> `Error (true, "--spec needs a FILE")
  | None when check -> `Ok (check_tune o)
  | None ->
      let results = with_sweep o (fun sweep -> E.tune_table ~grid ~sweep ()) in
      `Ok
        (if json then
           print_endline
             (Obs.Json.pretty
                (Obs.Json.List (List.map T.result_to_json results)))
         else print_string (render_tunes results))
  | Some file ->
      let base = resolve_spec spec_file in
      let source = read_file file in
      (* wide-grid Domains points execute the program for real; narrower
         grids are pure model predictions *)
      let measure_source = match grid with T.Wide -> Some source | _ -> None in
      let r =
        with_sweep o (fun sweep ->
            diagnosing file (fun () ->
                E.tune_program ~grid ~base ~sweep ?measure_source
                  ~program:(Filename.basename file) ~source ()))
      in
      `Ok
        (if json then print_endline (Obs.Json.pretty (T.result_to_json r))
         else print_string (T.render r))

(* ------------------------------------------------------------------ *)
(* engine, coverage, chaos                                             *)
(* ------------------------------------------------------------------ *)

(* engine --check: real domains agree with the simulator bit for bit,
   and loop fission leaves program state unchanged *)
let check_engine_row r =
  let program = E.js "program" r in
  let domains_speedup = E.jf "domains_speedup" r in
  if not (E.jb "domains_identical" r) then
    fail "FAIL %s: domains engine diverged from the simulator" program;
  (* the point of running for real: on the 3-d app, 4 domains must beat
     the single-threaded fused simulation by 2x.  Only enforceable when
     the host has the cores: on fewer, the domains timeslice *)
  let cores = Domain.recommended_domain_count () in
  if program = "aerofoil" then begin
    if cores < 4 then
      Printf.printf "SKIP %s: 2x domains floor needs >= 4 cores, host has %d\n"
        program cores
    else if domains_speedup < 2.0 then
      fail "FAIL %s: domains speedup %.2fx below the 2x floor (%d cores)"
        program domains_speedup cores
  end;
  if not (E.jb "fission_identical" r) then
    fail "FAIL %s: loop fission changed program state" program;
  Printf.printf "OK %s: domains %.2fx wall-clock, results identical\n" program
    domains_speedup

let engine check o =
  let rows = with_sweep o (fun sweep -> E.engine_bench ~sweep ()) in
  print_string (E.render_engine rows);
  print_newline ();
  print_string (E.render_engine_coverage rows);
  if check then List.iter check_engine_row rows

let coverage () = print_string (E.render_coverage_fission ())

(* chaos --check: every schedule is recoverable, so a divergence is a
   transport or recovery bug; the overhead ceiling catches retransmit
   storms and checkpoint regressions *)
let chaos check o =
  let rows = with_sweep o (fun sweep -> E.chaos_bench ~sweep ()) in
  print_string (E.render_chaos rows);
  let max_overhead = 4.0 in
  if check then
    List.iter
      (fun r ->
        let program = E.js "program" r and schedule = E.js "schedule" r in
        let overhead = E.jf "overhead" r in
        if not (E.jb "identical" r) then
          fail "FAIL %s/%s: result diverged from fault-free run" program
            schedule;
        if overhead > max_overhead then
          fail "FAIL %s/%s: overhead %.2fx above budget %.1fx" program schedule
            overhead max_overhead;
        Printf.printf "OK %s/%s: identical, overhead %.2fx\n" program schedule
          overhead)
      rows

(* ------------------------------------------------------------------ *)
(* fabric --check: the distributed-sweep chaos gate.  Three passes over *)
(* the pooled tables:                                                   *)
(*   0. serial, in-process           — the reference rendering          *)
(*   1. master + 3 worker processes, one SIGKILLed mid-sweep — must     *)
(*      render byte-identically, observe >= 1 worker death and >= 1     *)
(*      requeue, and leave a Chrome trace (fabric_trace.json)           *)
(*   2. master with no workers at all — must degrade to the in-process  *)
(*      pool (not hang) and still render byte-identically               *)
(* Neither fabric pass may count a corrupt frame.                       *)
(* ------------------------------------------------------------------ *)

let check_fabric cache_dir =
  let module Fabric = Sched.Fabric in
  Printf.eprintf "pass 0 (serial, in-process)...\n%!";
  let out0 = sweep_tables (E.sweep ()) in
  Printf.eprintf "pass 1 (fabric: 3 workers, 1 chaos-killed mid-sweep)...\n%!";
  let cache = gate_cache cache_dir "fabric" in
  let fabric =
    make_fabric ~cfg:{ Fabric.default_cfg with Fabric.fb_chaos_kill = Some 3 } 3
  in
  let tracer = Obs.Trace.create () in
  let out1 = sweep_tables (E.sweep ~cache ~tracer ~fabric ()) in
  let st = Fabric.stats fabric in
  prerr_string (Autocfd.Report.fabric_summary st);
  write_file ~oc:stderr "fabric_trace.json" (Obs.Chrome.to_string tracer);
  Fabric.shutdown fabric;
  if out1 <> out0 then
    fail "FAIL: fabric sweep diverged from the serial rendering";
  if st.Fabric.fs_worker_deaths < 1 then
    fail "FAIL: chaos kill did not register a worker death";
  if st.Fabric.fs_requeues < 1 then
    fail "FAIL: the killed worker's lease was not requeued";
  if st.Fabric.fs_degraded then
    fail "FAIL: the 3-worker pass unexpectedly degraded";
  (* a SIGKILLed worker leaves at most a truncated frame, which is a
     closed connection, not a corrupt one *)
  if st.Fabric.fs_corrupt_frames > 0 then
    fail "FAIL: the 3-worker pass saw %d corrupt frame(s)"
      st.Fabric.fs_corrupt_frames;
  Printf.eprintf "pass 2 (fabric: no workers, short grace)...\n%!";
  let fabric2 =
    make_fabric ~cfg:{ Fabric.default_cfg with Fabric.fb_grace = 0.3 } 0
  in
  let out2 = sweep_tables (E.sweep ~fabric:fabric2 ()) in
  let st2 = Fabric.stats fabric2 in
  Fabric.shutdown fabric2;
  if out2 <> out0 then
    fail "FAIL: degraded sweep diverged from the serial rendering";
  if not st2.Fabric.fs_degraded then
    fail "FAIL: worker-less sweep did not report degradation";
  if st2.Fabric.fs_corrupt_frames > 0 then
    fail "FAIL: the worker-less pass saw %d corrupt frame(s)"
      st2.Fabric.fs_corrupt_frames;
  Printf.printf
    "OK fabric: 3 passes byte-identical; chaos pass survived %d worker \
     death(s) with %d requeue(s) and %d retries; worker-less pass degraded \
     to the in-process pool\n"
    st.Fabric.fs_worker_deaths st.Fabric.fs_requeues st.Fabric.fs_retries

let fabric check cache_dir =
  if check then `Ok (check_fabric cache_dir)
  else
    `Error
      (true, "fabric is the --check gate; `tables --workers N` renders the \
              tables over the fabric")

(* one fabric worker process: connect back to the master, resolve each
   assigned spec through the shared Experiments dispatcher, stream the
   results home.  Normally spawned by the master itself (--workers, the
   fabric gate), but any host that can reach the socket may
   contribute. *)
let worker connect id =
  let module Fabric = Sched.Fabric in
  match Fabric.addr_of_string connect with
  | Error msg -> fail "autocfd worker: %s" msg
  | Ok addr -> (
      match Fabric.serve ~connect:addr ?id ~resolve:E.exec_spec () with
      | Ok () -> ()
      | Error msg -> fail "autocfd worker: %s" msg)

let demo which =
  match which with
  | "aerofoil" -> print_string (Autocfd_apps.Aerofoil.source ())
  | "sprayer" -> print_string (Autocfd_apps.Sprayer.source ())
  | "cavity" -> print_string (Autocfd_apps.Cavity.source ())
  | other -> fail "unknown demo %S (aerofoil|sprayer|cavity)" other

(* ------------------------------------------------------------------ *)

let analyze_cmd =
  Cmd.v (Cmd.info "analyze" ~doc:"Dependency and synchronization analysis report")
    Term.(const analyze $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg)

let output_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file.")

let parallelize_cmd =
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
          $ fission_arg $ mpi $ output_arg)

let json_flag ~what =
  Arg.(value & flag & info [ "json" ] ~doc:("Emit " ^ what ^ " as JSON."))

let check_flag ~doc = Arg.(value & flag & info [ "check" ] ~doc)

let jobs_arg =
  Arg.(value & opt int (Sched.Pool.default_jobs ())
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains for the sweep scheduler (default: all \
                 recommended cores).")

let no_cache_arg =
  Arg.(value & flag
       & info [ "no-cache" ]
           ~doc:"Disable the persistent content-addressed result cache.")

let cache_dir_arg =
  Arg.(value & opt string default_cache_dir
       & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Result cache directory (default: _autocfd_cache).")

let sweep_term =
  let workers =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Spawn $(docv) fabric worker processes and run the sweep \
                   over the distributed fabric (leases, retries, crash \
                   recovery) instead of the in-process pool.  0 (default) \
                   stays in-process.")
  in
  Term.(
    const (fun jobs workers no_cache cache_dir ->
        { jobs; workers; use_cache = not no_cache; cache_dir })
    $ jobs_arg $ workers $ no_cache_arg $ cache_dir_arg)

let engine_arg =
  let parse s =
    match Autocfd.Runspec.engine_of_string s with
    | e -> Ok e
    | exception Obs.Json.Parse_error _ ->
        Error (`Msg (Printf.sprintf "bad engine %S (fused|domains)" s))
  in
  let print ppf e =
    Format.pp_print_string ppf (Autocfd.Runspec.engine_to_string e)
  in
  Arg.(value & opt (some (conv (parse, print))) None
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: fused (default, or whatever --spec \
                 says: the fused kernels on the simulated cluster) or \
                 domains (the same kernels run for real, one OCaml 5 domain \
                 per rank in shared memory).  Both emit per-nest kernel \
                 summaries.")

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
             ~doc:"Emit the run's metrics and the pool's stats in \
                   Prometheus text exposition format instead of the \
                   human-readable profile.")
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
          same metrics in Prometheus text format.")
    Term.(const profile_cmd $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ engine_arg
          $ top
          $ json_flag ~what:"the full profile document"
          $ prom
          $ check_flag
              ~doc:"Exit nonzero unless at least $(b,--min-coverage) of the \
                    virtual compute time is attributed to named field-loop \
                    nests (the CI attribution gate)."
          $ min_cov)

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Emit a markdown pre-compilation report (loops, S_LDP, \
             synchronization points, modelled performance, and the \
             measured per-rank time breakdown and per-sync-point traffic)")
    Term.(const report $ file_arg $ spec_arg $ parts_arg $ nprocs_arg
          $ fission_arg $ output_arg)

let tables_cmd =
  let which =
    let names = List.map fst all_tables @ [ "all" ] in
    Arg.(value & pos 0 (enum (List.map (fun n -> (n, n)) names)) "all"
         & info [] ~docv:"TABLE"
             ~doc:"1-5, validate (model vs simulator), ablation (optimal vs \
                   first-fit combining), advisor (partition choice) or all.")
  in
  let baseline =
    Arg.(value & opt string "BENCH_baseline.json"
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Baseline document for --check-regress and \
                   --update-baseline.")
  in
  let check_regress =
    Arg.(value & flag
         & info [ "check-regress" ]
             ~doc:"Gate the JSON document against the $(b,--baseline): \
                   modelled times and sync counts must not rise, speedups \
                   must not fall, engine identity and chaos recovery must \
                   stay true.  The report goes to stderr; exits nonzero on \
                   any regression.")
  in
  let update_baseline =
    Arg.(value & flag
         & info [ "update-baseline" ]
             ~doc:"(Over-)write the $(b,--baseline) with the JSON document.")
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate the paper's evaluation tables side by side with the \
             published values")
    Term.(const tables $ which
          $ json_flag
              ~what:"every table (1-5), the model validation, engine, \
                     resilience, tune and scheduler sections"
          $ check_flag
              ~doc:"The three-pass gate: serial, cold parallel and warm \
                    parallel sweeps must render the pooled tables \
                    byte-identically, the warm pass must be 100% cache hits \
                    and at least 5x faster than the cold one."
          $ baseline $ check_regress $ update_baseline $ sweep_term)

let tune_cmd =
  let file =
    Arg.(value & pos 0 (some file) None
         & info [] ~docv:"FILE"
             ~doc:"Fortran source to tune (default: both bundled case \
                   studies).")
  in
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
                   counts, the fission ablation and the real Domains \
                   engine with measured wall clock).")
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Auto-search the full configuration space of a program: every \
          rank count, feasible partition shape, synchronization-combining \
          strategy (and on the wide grid: the fission ablation and \
          the real Domains engine) is one cached job through the sweep \
          scheduler; the result is the winning configuration plus the \
          Pareto frontier over predicted time, communication volume and \
          per-rank memory.  Each frontier row's spec is a complete \
          Runspec: feed it back with --spec to reproduce that exact run.")
    Term.(ret
            (const tune $ file $ spec_arg $ grid
             $ json_flag ~what:"the winner and Pareto frontier"
             $ check_flag
                 ~doc:"The tune gate over both case studies on the default \
                       grid: serial, cold parallel and warm parallel passes \
                       must render byte-identically with a 100%-hit warm \
                       pass, each winner must beat every hand-picked Table \
                       2/3 row, and each frontier must be Pareto-minimal."
             $ sweep_term))

let engine_cmd =
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "The fused kernels on the simulated cluster and on real OCaml 5 \
          domains, with and without loop fission, timed on the wall clock \
          on small instances of both case studies, plus per-loop kernel \
          coverage")
    Term.(
      const engine
      $ check_flag
          ~doc:"Exit nonzero unless the domains engine's program state is \
                identical to the simulator's and loop fission leaves \
                program state unchanged."
      $ sweep_term)

let coverage_cmd =
  Cmd.v
    (Cmd.info "coverage"
       ~doc:
         "Per-nest fused-kernel coverage of the bundled applications before \
          and after the loop-fission pass")
    Term.(const coverage $ const ())

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Seeded fault schedules (loss, duplication, corruption, jitter, \
          stragglers, crash and restart) against the reliable transport \
          and checkpoint/restart on both case studies")
    Term.(const chaos
          $ check_flag
              ~doc:"Exit nonzero unless every schedule's result is \
                    bit-identical to the fault-free run within a 4x \
                    virtual-time overhead."
          $ sweep_term)

let fabric_cmd =
  Cmd.v
    (Cmd.info "fabric"
       ~doc:"The distributed-sweep chaos gate (leaves fabric_trace.json)")
    Term.(ret
            (const fabric
             $ check_flag
                 ~doc:"Render the pooled tables serially, then over a master \
                       with 3 worker processes, one SIGKILLed mid-sweep (byte \
                       for byte, with >= 1 requeue and no corrupt frame), \
                       then over a worker-less master that must degrade to \
                       the in-process pool."
             $ cache_dir_arg))

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
                      engine_cmd; coverage_cmd; chaos_cmd; fabric_cmd;
                      worker_cmd; demo_cmd ]))
