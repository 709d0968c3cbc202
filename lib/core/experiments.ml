module S = Autocfd_syncopt
module M = Autocfd_perfmodel.Model
module Apps = Autocfd_apps
module Sched = Autocfd_sched
module J = Autocfd_obs.Json

let machine = M.pentium_cluster

(* frame counts scaling modelled runs to the paper's wall-clock
   magnitudes (the paper does not state iteration counts) *)
let aerofoil_frames = 3000
let sprayer_frames = 1500

let shape = Autocfd_partition.Topology.shape_to_string

(* ------------------------------------------------------------------ *)
(* Sweep infrastructure: every table enumerates its rows as jobs       *)
(* through the multicore pool; results come back in submission order   *)
(* as JSON (the same form the cache stores), so serial, parallel and   *)
(* warm-cache sweeps render byte-identically.                          *)
(* ------------------------------------------------------------------ *)

type sweep = {
  sw_jobs : int;
  sw_cache : Sched.Cache.t option;
  sw_tracer : Autocfd_obs.Trace.t option;
  sw_fabric : Sched.Fabric.t option;
  mutable sw_stats : (string * Sched.Pool.stats) list;  (* newest first *)
}

let sweep ?(jobs = 1) ?cache ?tracer ?fabric () =
  {
    sw_jobs = jobs;
    sw_cache = cache;
    sw_tracer = tracer;
    sw_fabric = fabric;
    sw_stats = [];
  }

let sweep_stats sw = List.rev sw.sw_stats

let sweep_stale sw =
  match sw.sw_cache with Some c -> Sched.Cache.stale_cleaned c | None -> 0

let fresh_sweep = function Some sw -> sw | None -> sweep ()

let run_jobs sw ~table jobs =
  let results, stats =
    match sw.sw_fabric with
    | Some fb -> Sched.Fabric.run fb ?cache:sw.sw_cache ?tracer:sw.sw_tracer jobs
    | None ->
        Sched.Pool.run ~jobs:sw.sw_jobs ?cache:sw.sw_cache ?tracer:sw.sw_tracer
          jobs
  in
  sw.sw_stats <- (table, stats) :: sw.sw_stats;
  List.mapi
    (fun i (job : Sched.Job.t) ->
      match results.(i) with
      | Ok v -> v
      | Error msg ->
          failwith (Printf.sprintf "%s: %s" job.Sched.Job.jb_label msg))
    jobs

(* field readers over job results and table rows *)
let jfield name j =
  match J.member name j with
  | Some v -> v
  | None -> raise (J.Parse_error ("missing field " ^ name))

let jf name j = J.to_float_exn (jfield name j)

let ji name j =
  match jfield name j with
  | J.Int i -> i
  | _ -> raise (J.Parse_error ("field " ^ name ^ ": expected int"))

let jb name j =
  match jfield name j with
  | J.Bool b -> b
  | _ -> raise (J.Parse_error ("field " ^ name ^ ": expected bool"))

let js name j =
  match jfield name j with
  | J.Str s -> s
  | _ -> raise (J.Parse_error ("field " ^ name ^ ": expected string"))

let jl name j =
  match jfield name j with
  | J.List l -> l
  | _ -> raise (J.Parse_error ("field " ^ name ^ ": expected list"))

let parts_key p = J.Str (Runspec.parts_to_string p)

(* the runspec naming "plan this explicit shape" (all other knobs at
   their defaults) — the bridge from the tables' partition columns to
   the spec-driven Driver API *)
let parts_spec parts = Runspec.(default |> with_parts (Some parts))

(* ------------------------------------------------------------------ *)
(* Self-contained execution specs.  Every job body lives in exec_spec, *)
(* dispatched on a JSON spec that carries the full program source and  *)
(* parameters — so the in-process pool (which closes over the spec)    *)
(* and a remote fabric worker (which receives it over the wire)        *)
(* compute through the same code path, and a distributed sweep is      *)
(* byte-identical to a serial one by construction.                     *)
(* ------------------------------------------------------------------ *)

module Fault = Autocfd_mpsim.Fault

let arrays_identical (a : Autocfd_interp.Spmd.result)
    (b : Autocfd_interp.Spmd.result) =
  List.length a.Autocfd_interp.Spmd.gathered
  = List.length b.Autocfd_interp.Spmd.gathered
  && List.for_all2
       (fun (na, aa) (nb, ab) ->
         na = nb
         && aa.Autocfd_interp.Value.bounds = ab.Autocfd_interp.Value.bounds
         && aa.Autocfd_interp.Value.data = ab.Autocfd_interp.Value.data)
       a.Autocfd_interp.Spmd.gathered b.Autocfd_interp.Spmd.gathered

(* program state only — gathered arrays, scalars, flop census, WRITE
   output.  This is the bit-equivalence contract the Domains engine can
   meet: its [stats] are measured wall clock, not virtual time. *)
let program_state_identical (a : Autocfd_interp.Spmd.result)
    (b : Autocfd_interp.Spmd.result) =
  arrays_identical a b
  && a.Autocfd_interp.Spmd.scalars = b.Autocfd_interp.Spmd.scalars
  && a.Autocfd_interp.Spmd.flops_per_rank = b.Autocfd_interp.Spmd.flops_per_rank
  && a.Autocfd_interp.Spmd.output = b.Autocfd_interp.Spmd.output

(* the resilience claim: same science out, faults or no faults *)
let state_identical (a : Autocfd_interp.Spmd.result)
    (b : Autocfd_interp.Spmd.result) =
  arrays_identical a b
  && a.Autocfd_interp.Spmd.scalars = b.Autocfd_interp.Spmd.scalars
  && a.Autocfd_interp.Spmd.output = b.Autocfd_interp.Spmd.output

let coverage_to_json cov =
  J.List
    (List.map
       (fun (c : Autocfd_interp.Compile.coverage_entry) ->
         J.Obj
           [
             ("line", J.Int c.Autocfd_interp.Compile.cov_line);
             ( "vars",
               J.List
                 (List.map
                    (fun v -> J.Str v)
                    c.Autocfd_interp.Compile.cov_vars) );
             ("fused", J.Bool c.Autocfd_interp.Compile.cov_fused);
             ( "reason",
               J.Str
                 (Autocfd_interp.Compile.reason_to_string
                    c.Autocfd_interp.Compile.cov_reason) );
             ( "frag",
               J.Int
                 (match c.Autocfd_interp.Compile.cov_frag with
                 | Some t -> t.Autocfd_fortran.Ast.fi_frag
                 | None -> 0) );
             ( "nfrags",
               J.Int
                 (match c.Autocfd_interp.Compile.cov_frag with
                 | Some t -> t.Autocfd_fortran.Ast.fi_nfrags
                 | None -> 0) );
           ])
       cov)

(* Six seeded schedules per program, scaled to the fault-free run: message
   loss alone, duplication+corruption, timing perturbations (jitter and a
   degraded link), a transient straggler, a hard crash mid-run, and all of
   them together.  Every schedule is recoverable, so each row must come
   back bit-identical. *)
let chaos_schedules ~seed ~clean_elapsed ~net =
  let lat = net.Autocfd_mpsim.Netmodel.latency in
  let mid p = Fault.At_time (p *. clean_elapsed) in
  [
    ("loss 3%", Fault.spec ~seed ~loss:0.03 ());
    ( "dup+corrupt 2%",
      Fault.spec ~seed:(seed + 1) ~duplication:0.02 ~corruption:0.02 () );
    ( "jitter+slow link",
      Fault.spec ~seed:(seed + 2) ~jitter:(8.0 *. lat)
        ~degrade:[ (0, 1, 3.0); (1, 0, 3.0) ]
        () );
    ( "straggler",
      Fault.spec ~seed:(seed + 3)
        ~stalls:
          [
            {
              Fault.sl_rank = 1;
              sl_at = mid 0.3;
              sl_duration = 0.2 *. clean_elapsed;
            };
          ]
        () );
    ( "crash+restart",
      Fault.spec ~seed:(seed + 4)
        ~crashes:[ { Fault.cr_rank = 1; cr_at = mid 0.4 } ]
        () );
    ( "kitchen sink",
      Fault.spec ~seed:(seed + 5) ~loss:0.01 ~duplication:0.01
        ~corruption:0.01 ~jitter:(4.0 *. lat)
        ~crashes:[ { Fault.cr_rank = 1; cr_at = mid 0.5 } ]
        () );
  ]

let schedule_labels =
  List.map fst (chaos_schedules ~seed:0 ~clean_elapsed:1.0 ~net:machine.M.net)

let resilience_to_json (rs : Autocfd_interp.Spmd.resilience)
    (c : Fault.counters) =
  [
    ("drops", J.Int c.Fault.fc_drops);
    ("duplicates", J.Int c.Fault.fc_duplicates);
    ("corruptions", J.Int c.Fault.fc_corruptions);
    ("reorders", J.Int c.Fault.fc_reorders);
    ("stalls", J.Int c.Fault.fc_stalls);
    ("crashes", J.Int c.Fault.fc_crashes);
    ("restarts", J.Int rs.Autocfd_interp.Spmd.rs_restarts);
    ("checkpoints", J.Int rs.Autocfd_interp.Spmd.rs_checkpoints);
    ("restores", J.Int rs.Autocfd_interp.Spmd.rs_restores);
    ("retransmits", J.Int rs.Autocfd_interp.Spmd.rs_retransmits);
    ("dup_suppressed", J.Int rs.Autocfd_interp.Spmd.rs_dup_suppressed);
    ("checksum_failures", J.Int rs.Autocfd_interp.Spmd.rs_checksum_failures);
  ]

(* wall clock, not [Sys.time]: that sums the CPU time of every domain
   in the process, including the pool's other jobs running alongside.
   The wall clock still counts the cores those jobs take, so
   engine-bench jobs hold [timing_lock] and run one at a time. *)
let timing_lock = Mutex.create ()

let time_run f =
  ignore (f ());
  (* warm: populate compile + plan caches *)
  let reps = 3 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let exec_spec spec =
  let source () = js "source" spec in
  let parts () = Runspec.parts_of_string (js "partition" spec) in
  match js "kind" spec with
  | "plan-sync" ->
      let t = Driver.load (source ()) in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      J.Obj
        [
          ("before", J.Int plan.Driver.opt.S.Optimizer.before);
          ("after", J.Int plan.Driver.opt.S.Optimizer.after);
        ]
  | "predict-seq" ->
      let t = Driver.load (source ()) in
      let pred = M.predict_sequential machine ~gi:t.Driver.gi t.Driver.inlined in
      J.Obj [ ("time", J.Float pred.M.time) ]
  | "predict-par" ->
      let t = Driver.load (source ()) in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      let pred =
        M.predict_parallel machine ~gi:t.Driver.gi ~topo:plan.Driver.topo
          plan.Driver.spmd
      in
      J.Obj [ ("time", J.Float pred.M.time) ]
  | "predict-both" ->
      let t = Driver.load (source ()) in
      let t1 =
        (M.predict_sequential machine ~gi:t.Driver.gi t.Driver.inlined)
          .M.time
      in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      let t2 =
        (M.predict_parallel machine ~gi:t.Driver.gi
           ~topo:plan.Driver.topo plan.Driver.spmd)
          .M.time
      in
      J.Obj [ ("t1", J.Float t1); ("t2", J.Float t2) ]
  | "validate" ->
      let t = Driver.load (source ()) in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      let par =
        Driver.run ~spec:Runspec.(default |> with_machine (Some machine)) plan
      in
      let simulated =
        par.Autocfd_interp.Spmd.stats.Autocfd_mpsim.Sim.elapsed
      in
      let modelled =
        (M.predict_parallel machine ~gi:t.Driver.gi
           ~topo:plan.Driver.topo plan.Driver.spmd)
          .M.time
      in
      J.Obj
        [
          ("simulated", J.Float simulated);
          ("modelled", J.Float modelled);
        ]
  | "engine-bench" ->
      Mutex.protect timing_lock @@ fun () ->
      let source = source () in
      let large_source = js "large_source" spec in
      let parts = parts () in
      let t = Driver.load source in
      let plan = Driver.plan ~spec:(parts_spec parts) t in
      let run engine () =
        Driver.run ~spec:(Runspec.with_engine engine Runspec.default) plan
      in
      let fused = run Autocfd_interp.Spmd.Fused in
      let reference = fused () in
      let fused_s = time_run fused in
      (* fused vs domains: the same program at the large size, where
         per-barrier compute dominates domain spawn/wakeup cost.  The
         Domains engine is timed on the wall clock it measures
         itself *)
      let lplan = Driver.plan ~spec:(parts_spec parts) (Driver.load large_source) in
      let lrun engine () =
        Driver.run ~spec:(Runspec.with_engine engine Runspec.default)
          lplan
      in
      let lfused = lrun Autocfd_interp.Spmd.Fused in
      let ldomains = lrun Autocfd_interp.Spmd.Domains in
      let lref = lfused () in
      let dres = ldomains () in
      let domains_identical =
        program_state_identical reference (run Autocfd_interp.Spmd.Domains ())
        && program_state_identical lref dres
      in
      let fused_wall_s = time_run lfused in
      let ds_wall r =
        match r.Autocfd_interp.Spmd.domains with
        | Some ds -> ds.Autocfd_interp.Spmd.ds_wall
        | None -> 0.0
      in
      let domains_s =
        let reps = 3 in
        let tot = ref (ds_wall dres) in
        for _ = 2 to reps do
          tot := !tot +. ds_wall (ldomains ())
        done;
        !tot /. float_of_int reps
      in
      let cal =
        match dres.Autocfd_interp.Spmd.domains with
        | None -> M.calibrate ~compute:[] ~comm:[]
        | Some ds ->
            let compute =
              Array.to_list
                (Array.map2
                   (fun f s -> (f, s))
                   ds.Autocfd_interp.Spmd.ds_flops
                   ds.Autocfd_interp.Spmd.ds_compute)
            in
            M.calibrate ~compute
              ~comm:ds.Autocfd_interp.Spmd.ds_comm_samples
      in
      let coverage =
        Autocfd_interp.Compile.coverage
          (Autocfd_interp.Compile.of_unit plan.Driver.spmd)
      in
      (* the same program with the loop-fission pass disabled: the
         before side of the fission before/after coverage and
         timing columns, plus a bit-identity check that fission
         changes no program state *)
      let nof_spec = Runspec.with_fission false (parts_spec parts) in
      let plan_nof =
        Driver.plan ~spec:nof_spec (Driver.load ~spec:nof_spec source)
      in
      let nof_fused () =
        Driver.run
          ~spec:
            (Runspec.with_engine Autocfd_interp.Spmd.Fused
               Runspec.default)
          plan_nof
      in
      let fission_identical =
        program_state_identical reference (nof_fused ())
      in
      let nofission_fused_s = time_run nof_fused in
      let nofission_coverage =
        Autocfd_interp.Compile.coverage
          (Autocfd_interp.Compile.of_unit plan_nof.Driver.spmd)
      in
      J.Obj
        [
          ("nofission_fused_s", J.Float nofission_fused_s);
          ("fission_identical", J.Bool fission_identical);
          ("nofission_coverage", coverage_to_json nofission_coverage);
          ("fused_s", J.Float fused_s);
          ("fused_wall_s", J.Float fused_wall_s);
          ("domains_s", J.Float domains_s);
          ("domains_identical", J.Bool domains_identical);
          ("cal_flop_time", J.Float cal.M.cal_flop_time);
          ("cal_latency", J.Float cal.M.cal_latency);
          ( "cal_bandwidth",
            J.Float
              (if Float.is_finite cal.M.cal_bandwidth then
                 cal.M.cal_bandwidth
               else 0.0) );
          ("cal_compute_r2", J.Float cal.M.cal_compute_r2);
          ("cal_comm_r2", J.Float cal.M.cal_comm_r2);
          ("coverage", coverage_to_json coverage);
        ]
  | "chaos" ->
      let seed = ji "seed" spec in
      let idx = ji "schedule" spec in
      let t = Driver.load (source ()) in
      let plan = Driver.plan ~spec:(parts_spec (parts ())) t in
      let net = machine.M.net in
      let base = Runspec.(default |> with_machine (Some machine)) in
      let clean = Driver.run ~spec:base plan in
      let clean_elapsed =
        clean.Autocfd_interp.Spmd.stats.Autocfd_mpsim.Sim.elapsed
      in
      let _, fspec =
        List.nth (chaos_schedules ~seed ~clean_elapsed ~net) idx
      in
      let faults = Fault.make fspec in
      let faulty =
        Driver.run
          ~spec:
            Runspec.(
              base
              |> with_faults (Some faults)
              |> with_recovery
                   (Some Autocfd_interp.Spmd.default_recovery))
          plan
      in
      J.Obj
        (( "identical",
           J.Bool (state_identical clean faulty) )
        :: ( "overhead",
             J.Float
               (faulty.Autocfd_interp.Spmd.stats
                  .Autocfd_mpsim.Sim.elapsed /. clean_elapsed) )
        :: resilience_to_json faulty.Autocfd_interp.Spmd.resilience
             (Fault.counters faults))
  | "tune" ->
      let rspec = Runspec.of_json (jfield "spec" spec) in
      let measure_source =
        match J.member "measure_source" spec with
        | Some (J.Str s) -> Some s
        | _ -> None
      in
      Tune.entry_to_json
        (Tune.eval ?measure_source ~machine ~source:(source ()) rspec)
  | other -> raise (J.Parse_error ("unknown job spec kind: " ^ other))

(* ------------------------------------------------------------------ *)
(* Tables as rows.  A table is a list of cases — a job spec plus the    *)
(* row fields execution does not produce (identity and the paper's     *)
(* figures) — and a list of columns.  A row is one JSON object: those  *)
(* fields, the job's result and any field derived across rows.  The    *)
(* columns render it and tables_json writes it unchanged.              *)
(* ------------------------------------------------------------------ *)

type row = J.t

let fields = function
  | J.Obj l -> l
  | _ -> raise (J.Parse_error "expected a JSON object")

let extend row extra = J.Obj (fields row @ extra)
let machine_json = Runspec.machine_to_json machine

(* The sweep job of one spec.  Its cache key is the spec itself with
   every program text replaced by its digest, plus the table and the
   machine: whatever the spec says, the key says too. *)
let job ~table ~label spec =
  let digested =
    List.map
      (function
        | (("source" | "large_source" | "measure_source") as k), J.Str text ->
            (k, J.Str (Sched.Job.digest text))
        | kv -> kv)
      (fields spec)
  in
  Sched.Job.make
    ~label:(table ^ ":" ^ label)
    ~key:
      (J.Obj (("table", J.Str table) :: ("machine", machine_json) :: digested))
    ~spec
    (fun () -> exec_spec spec)

let job_spec kind source rest =
  J.Obj (("kind", J.Str kind) :: ("source", J.Str source) :: rest)

(* cases are (job label, the row's own fields, job spec); rows come back
   in case order *)
let run_rows sw ~table cases =
  let jobs = List.map (fun (label, _, spec) -> job ~table ~label spec) cases in
  List.map2
    (fun (_, own, _) result -> J.Obj (own @ fields result))
    cases (run_jobs sw ~table jobs)

(* columns are (header, cell of a row) pairs *)
let render_rows ~title columns rows =
  let open Autocfd_util.Table in
  let t = create ~title ~headers:(List.map fst columns) in
  List.iter
    (fun r -> add_row t (List.map (fun (_, cell) -> cell r) columns))
    rows;
  render t

(* cells of one field; a null field renders as "-" *)
let or_dash cell name r =
  match jfield name r with J.Null -> "-" | _ -> cell name r

let count name r = Autocfd_util.Table.cell_int (ji name r)

let num ?decimals name =
  or_dash (fun n r -> Autocfd_util.Table.cell_float ?decimals (jf n r)) name

let pct name = or_dash (fun n r -> Autocfd_util.Table.cell_pct (jf n r)) name

(* "4x1x1" as "4 x 1 x 1" *)
let dims name =
  or_dash
    (fun n r -> String.concat " x " (String.split_on_char 'x' (js n r)))
    name

let yes_no names r = if List.for_all (fun n -> jb n r) names then "yes" else "NO"
let procs parts = Array.fold_left ( * ) 1 parts

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let paper_table1 =
  [
    ("aerofoil", [| 4; 1; 1 |], 73, 8);
    ("aerofoil", [| 1; 4; 1 |], 84, 10);
    ("aerofoil", [| 1; 1; 4 |], 81, 9);
    ("aerofoil", [| 4; 4; 1 |], 148, 13);
    ("aerofoil", [| 4; 1; 4 |], 145, 13);
    ("aerofoil", [| 1; 4; 4 |], 156, 14);
    ("sprayer", [| 4; 1 |], 72, 7);
    ("sprayer", [| 1; 4 |], 69, 7);
    ("sprayer", [| 4; 4 |], 141, 7);
  ]

let table1 ?sweep () =
  run_rows (fresh_sweep sweep) ~table:"table1"
    (List.map
       (fun (prog, parts, pb, pa) ->
         let source =
           if prog = "aerofoil" then Apps.Aerofoil.source ()
           else Apps.Sprayer.source ()
         in
         ( prog ^ " " ^ shape parts,
           [
             ("program", J.Str prog); ("partition", parts_key parts);
             ("paper_before", J.Int pb); ("paper_after", J.Int pa);
           ],
           job_spec "plan-sync" source [ ("partition", parts_key parts) ] ))
       paper_table1)

let reduction before after r =
  let b = ji before r in
  Autocfd_util.Table.cell_pct
    (float_of_int (b - ji after r) /. float_of_int (max 1 b))

let render_table1 =
  render_rows
    ~title:
      "Table 1: improvement by synchronization optimizations (ours vs paper)"
    [
      ("program", js "program"); ("partition", dims "partition");
      ("before", count "before"); ("after", count "after");
      ("reduction", reduction "before" "after");
      ("paper before", count "paper_before");
      ("paper after", count "paper_after");
      ("paper reduction", reduction "paper_before" "paper_after");
    ]

(* ------------------------------------------------------------------ *)
(* Timing tables                                                       *)
(* ------------------------------------------------------------------ *)

(* the sequential row, then one row per partition with its speedup and
   efficiency over the sequential row *)
let perf_rows sw ~table source ~paper_seq cases =
  match
    run_rows sw ~table
      (( "sequential",
         [
           ("procs", J.Int 1); ("partition", J.Null);
           ("paper_time", J.Float paper_seq); ("paper_speedup", J.Null);
         ],
         job_spec "predict-seq" source [] )
      :: List.map
           (fun (parts, paper_time, paper_speedup) ->
             ( shape parts,
               [
                 ("procs", J.Int (procs parts)); ("partition", parts_key parts);
                 ("paper_time", J.Float paper_time);
                 ("paper_speedup", J.Float paper_speedup);
               ],
               job_spec "predict-par" source [ ("partition", parts_key parts) ]
             ))
           cases)
  with
  | [] -> assert false
  | seq :: pars ->
      let t1 = jf "time" seq in
      extend seq [ ("speedup", J.Null); ("efficiency", J.Null) ]
      :: List.map
           (fun r ->
             let s = t1 /. jf "time" r in
             extend r
               [
                 ("speedup", J.Float s);
                 ("efficiency", J.Float (s /. float_of_int (ji "procs" r)));
               ])
           pars

let table2 ?sweep () =
  perf_rows (fresh_sweep sweep) ~table:"table2"
    (Apps.Aerofoil.source ~ntime:aerofoil_frames ())
    ~paper_seq:1970.
    [
      ([| 2; 1; 1 |], 1760., 1.12);
      ([| 4; 1; 1 |], 2341., 0.84);
      ([| 3; 2; 1 |], 1093., 1.80);
    ]

let table3 ?sweep () =
  perf_rows (fresh_sweep sweep) ~table:"table3"
    (Apps.Sprayer.source ~ntime:sprayer_frames ())
    ~paper_seq:362.
    [
      ([| 2; 1 |], 254., 1.43);
      ([| 3; 1 |], 184., 1.97);
      ([| 2; 2 |], 130., 2.78);
    ]

let render_perf ~title =
  render_rows ~title
    [
      ("procs", count "procs"); ("partition", dims "partition");
      ("time (s)", num ~decimals:0 "time"); ("speedup", num "speedup");
      ("efficiency", pct "efficiency");
      ("paper time (s)", num ~decimals:0 "paper_time");
      ("paper speedup", num "paper_speedup");
    ]

(* ------------------------------------------------------------------ *)
(* Table 4: scaling with grid density                                  *)
(* ------------------------------------------------------------------ *)

let paper_table4 =
  [
    ((40, 15), 45., 45., 1.0);
    ((60, 23), 108., 66., 1.64);
    ((80, 30), 199., 140., 1.42);
    ((100, 38), 331., 218., 1.52);
    ((120, 45), 472., 276., 1.71);
    ((140, 53), 712., 403., 1.77);
    ((160, 60), 908., 519., 1.75);
  ]

let table4 ?sweep () =
  List.map
    (fun r ->
      let s = jf "t1" r /. jf "t2" r in
      extend r [ ("speedup", J.Float s); ("efficiency", J.Float (s /. 2.0)) ])
    (run_rows (fresh_sweep sweep) ~table:"table4"
       (List.map
          (fun ((ni, nj), p1, p2, ps) ->
            let grid = Printf.sprintf "%dx%d" ni nj in
            ( grid,
              [
                ("grid", J.Str grid); ("paper_t1", J.Float p1);
                ("paper_t2", J.Float p2); ("paper_speedup", J.Float ps);
              ],
              job_spec "predict-both"
                (Apps.Sprayer.source ~ni ~nj ~ntime:sprayer_frames ())
                [ ("partition", parts_key [| 2; 1 |]) ] ))
          paper_table4))

let render_table4 =
  render_rows
    ~title:
      "Table 4: sprayer scaling with grid density, 2 x 1 partition (ours vs \
       paper)"
    [
      ("grid", dims "grid"); ("T1 (s)", num ~decimals:0 "t1");
      ("T2 (s)", num ~decimals:0 "t2"); ("speedup", num "speedup");
      ("efficiency", pct "efficiency");
      ("paper T1", num ~decimals:0 "paper_t1");
      ("paper T2", num ~decimals:0 "paper_t2");
      ("paper speedup", num "paper_speedup");
    ]

(* ------------------------------------------------------------------ *)
(* Table 5: superlinear speedup                                        *)
(* ------------------------------------------------------------------ *)

(* every row's efficiency over the first (2-processor) row *)
let table5 ?sweep () =
  let source = Apps.Sprayer.source ~ni:800 ~nj:300 ~ntime:sprayer_frames () in
  let rows =
    run_rows (fresh_sweep sweep) ~table:"table5"
      (List.map
         (fun (parts, paper_time, paper_eff) ->
           ( shape parts,
             [
               ("procs", J.Int (procs parts)); ("partition", parts_key parts);
               ("paper_time", J.Float paper_time);
               ("paper_eff", J.Float paper_eff);
             ],
             job_spec "predict-par" source [ ("partition", parts_key parts) ]
           ))
         [
           ([| 2; 1 |], 2095., 1.00);
           ([| 3; 1 |], 1249., 1.12);
           ([| 2; 2 |], 1012., 1.04);
         ])
  in
  let t2 = jf "time" (List.hd rows) in
  List.map
    (fun r ->
      extend r
        [
          ( "eff_over_2",
            J.Float (t2 *. 2.0 /. (jf "time" r *. float_of_int (ji "procs" r)))
          );
        ])
    rows

let render_table5 =
  render_rows
    ~title:"Table 5: sprayer superlinear speedup at 800 x 300 (ours vs paper)"
    [
      ("procs", count "procs"); ("partition", dims "partition");
      ("time (s)", num ~decimals:0 "time");
      ("efficiency over 2-proc", pct "eff_over_2");
      ("paper time (s)", num ~decimals:0 "paper_time");
      ("paper efficiency", pct "paper_eff");
    ]

(* ------------------------------------------------------------------ *)
(* Model vs simulation cross-validation                                 *)
(* ------------------------------------------------------------------ *)

type validation_row = { vr_row : row; vr_ratio : float }

let validate_model ?sweep () =
  run_rows (fresh_sweep sweep) ~table:"validation"
    (List.map
       (fun ((ni, nj), parts) ->
         let grid = Printf.sprintf "%dx%d" ni nj in
         ( Printf.sprintf "%s %s" grid (shape parts),
           [ ("grid", J.Str grid); ("partition", parts_key parts) ],
           job_spec "validate"
             (Apps.Sprayer.source ~ni ~nj ~ntime:4 ~npsi:3 ())
             [ ("partition", parts_key parts) ] ))
       [
         ((30, 16), [| 2; 1 |]);
         ((30, 16), [| 2; 2 |]);
         ((40, 20), [| 2; 1 |]);
         ((40, 20), [| 4; 1 |]);
         ((50, 24), [| 2; 2 |]);
       ])
  |> List.map (fun r ->
         let ratio = jf "modelled" r /. jf "simulated" r in
         { vr_row = extend r [ ("ratio", J.Float ratio) ]; vr_ratio = ratio })

let render_validation vrs =
  render_rows
    ~title:
      "Model validation: execution-driven simulated time vs analytic \
       prediction (sprayer, 4 frames)"
    [
      ("grid", dims "grid"); ("partition", dims "partition");
      ("simulated (s)", num ~decimals:3 "simulated");
      ("modelled (s)", num ~decimals:3 "modelled"); ("ratio", num "ratio");
    ]
    (List.map (fun v -> v.vr_row) vrs)

(* ------------------------------------------------------------------ *)
(* Execution-engine benchmark: tree-walking vs compiled vs fused       *)
(* ------------------------------------------------------------------ *)

(* (name, small source, large source, partition): the small instance keeps
   the tree-walking column affordable; the large one gives the Domains
   engine enough compute per barrier for real parallel speedup to show *)
let engine_cases =
  [
    ( "aerofoil",
      (fun () -> Apps.Aerofoil.source ~ni:24 ~nj:12 ~nk:8 ~ntime:2 ()),
      (fun () -> Apps.Aerofoil.source ~ni:48 ~nj:24 ~nk:12 ~ntime:4 ()),
      [| 2; 2; 1 |] );
    ( "sprayer",
      (fun () -> Apps.Sprayer.source ~ni:80 ~nj:40 ~ntime:4 ()),
      (fun () -> Apps.Sprayer.source ~ni:160 ~nj:80 ~ntime:8 ()),
      [| 2; 2 |] );
  ]

(* the nests of a coverage list as {!coverage_to_json} writes it, and
   how many of them fused *)
let nests = function
  | J.List l -> l
  | _ -> raise (J.Parse_error "coverage: expected list")

let coverage_counts cov =
  let l = nests cov in
  (List.length (List.filter (jb "fused") l), List.length l)

let engine_bench ?sweep () =
  run_rows (fresh_sweep sweep) ~table:"engine"
    (List.map
       (fun (name, source, large_source, parts) ->
         ( name,
           [ ("program", J.Str name); ("partition", parts_key parts) ],
           job_spec "engine-bench" (source ())
             [
               ("large_source", J.Str (large_source ()));
               ("partition", parts_key parts);
             ] ))
       engine_cases)
  |> List.map (fun r ->
         let loops field = coverage_counts (jfield field r) in
         let fused, total = loops "coverage" in
         let nf_fused, nf_total = loops "nofission_coverage" in
         extend r
           [
             ("domains_speedup", J.Float (jf "fused_wall_s" r /. jf "domains_s" r));
             ("loops_fused", J.Int fused); ("loops_total", J.Int total);
             ("loops_fused_nofission", J.Int nf_fused);
             ("loops_total_nofission", J.Int nf_total);
           ])

let render_engine =
  render_rows
    ~title:
      "Execution engine: fused kernels on the simulator vs on real OCaml 5 \
       domains (identical results)"
    [
      ("program", js "program"); ("partition", dims "partition");
      ("fused (s)", num ~decimals:3 "fused_s");
      ("no-fission fused (s)", num ~decimals:3 "nofission_fused_s");
      ("domains (s)", num ~decimals:3 "domains_s");
      ("domains speedup", num "domains_speedup");
      ( "loops fused (pre->post fission)",
        fun r ->
          Printf.sprintf "%d/%d -> %d/%d" (ji "loops_fused_nofission" r)
            (ji "loops_total_nofission" r) (ji "loops_fused" r)
            (ji "loops_total" r) );
      ("identical", yes_no [ "domains_identical"; "fission_identical" ]);
    ]

(* one coverage row, a nest of {!coverage_to_json}: line, loop variables
   (with the fission fragment) and whether the nest fused or why it fell
   back *)
let nest_line c =
  let frag =
    if ji "nfrags" c = 0 then ""
    else Printf.sprintf " #%d/%d" (ji "frag" c) (ji "nfrags" c)
  in
  Printf.sprintf "  line %-4d do %-24s %s\n" (ji "line" c)
    (String.concat ","
       (List.map
          (function
            | J.Str v -> v
            | _ -> raise (J.Parse_error "coverage var: expected string"))
          (jl "vars" c))
    ^ frag)
    (if jb "fused" c then "fused" else "fallback: " ^ js "reason" c)

let nest_lines b cov =
  List.iter (fun c -> Buffer.add_string b (nest_line c)) (nests cov)

let render_engine_coverage rows =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%s (%s): field-loop kernel coverage\n"
           (js "program" r) (dims "partition" r));
      nest_lines b (jfield "coverage" r);
      Buffer.add_char b '\n')
    rows;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Per-nest fused-kernel coverage of the full-size bundled applications *)
(* before and after loop fission, one row per field-loop nest of the    *)
(* inlined sequential unit ([autocfd coverage])                         *)
(* ------------------------------------------------------------------ *)

let coverage_apps () =
  [
    ("sprayer", Apps.Sprayer.source ());
    ("aerofoil", Apps.Aerofoil.source ());
    ("cavity", Apps.Cavity.source ());
  ]

let app_coverage ?(fission = true) src =
  let t = Driver.load ~spec:(Runspec.with_fission fission Runspec.default) src in
  Autocfd_interp.Compile.coverage
    (Autocfd_interp.Compile.of_unit t.Driver.inlined)

let render_coverage_fission () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, src) ->
      let before = coverage_to_json (app_coverage ~fission:false src) in
      let after = coverage_to_json (app_coverage src) in
      let bf, bt = coverage_counts before in
      let af, at = coverage_counts after in
      Buffer.add_string b
        (Printf.sprintf
           "%s: fused %d/%d without fission -> %d/%d with fission\n" name bf
           bt af at);
      nest_lines b after;
      Buffer.add_char b '\n')
    (coverage_apps ());
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Chaos benchmark: fault injection + reliable transport + recovery    *)
(* ------------------------------------------------------------------ *)

let chaos_case ~seed sw name source parts =
  run_rows sw ~table:"chaos"
    (List.mapi
       (fun idx label ->
         ( Printf.sprintf "%s %s" name label,
           [ ("program", J.Str name); ("schedule", J.Str label) ],
           job_spec "chaos" source
             [
               ("partition", parts_key parts); ("seed", J.Int seed);
               ("schedule", J.Int idx);
             ] ))
       schedule_labels)

let chaos_bench ?(seed = 42) ?sweep () =
  let sw = fresh_sweep sweep in
  chaos_case ~seed sw "sprayer"
    (Apps.Sprayer.source ~ni:40 ~nj:20 ~ntime:3 ())
    [| 2; 2 |]
  @ chaos_case ~seed sw "aerofoil"
      (Apps.Aerofoil.source ~ni:16 ~nj:10 ~nk:6 ~ntime:2 ())
      [| 2; 2; 1 |]

let render_chaos =
  render_rows
    ~title:
      "Chaos: seeded fault schedules vs reliable transport + \
       checkpoint/restart (result must stay bit-identical)"
    [
      ("program", js "program"); ("schedule", js "schedule");
      ("identical", yes_no [ "identical" ]);
      ("overhead", num ~decimals:2 "overhead");
      ( "injected",
        fun r ->
          Autocfd_util.Table.cell_int
            (List.fold_left
               (fun n f -> n + ji f r)
               0
               [ "drops"; "duplicates"; "corruptions"; "stalls"; "crashes" ]) );
      ("retransmits", count "retransmits");
      ("dups dropped", count "dup_suppressed");
      ("cksum fails", count "checksum_failures");
      ("ckpts", count "checkpoints"); ("restarts", count "restarts");
    ]

(* ------------------------------------------------------------------ *)
(* Auto-tuning                                                         *)
(* ------------------------------------------------------------------ *)

(* (program, frame-scaled source whose model predictions line up with
   the Table 2/3 rows, small instance the wide grid's Domains points
   can actually execute for a real wall clock) *)
let tune_cases =
  [
    ( "aerofoil",
      (fun () -> Apps.Aerofoil.source ~ntime:aerofoil_frames ()),
      (fun () -> Apps.Aerofoil.source ~ni:24 ~nj:12 ~nk:8 ~ntime:2 ()) );
    ( "sprayer",
      (fun () -> Apps.Sprayer.source ~ntime:sprayer_frames ()),
      (fun () -> Apps.Sprayer.source ~ni:80 ~nj:40 ~ntime:4 ()) );
  ]

(* one search point = one cached job whose spec carries the serialized
   runspec, so tune results survive cache reuse across grids and verbs
   and a warm re-tune is pure hits *)
let tune_program ?(grid = Tune.Default) ?base ?sweep ?measure_source
    ~program ~source () =
  let sw = fresh_sweep sweep in
  let jobs =
    List.map
      (fun rspec ->
        (* the measurement instance only enters the job (and its cache
           key) for points that will actually execute it *)
        let measure =
          match (rspec.Runspec.engine, measure_source) with
          | Autocfd_interp.Spmd.Domains, Some m ->
              [ ("measure_source", J.Str m) ]
          | _ -> []
        in
        job ~table:"tune"
          ~label:
            (Printf.sprintf "%s %s" program
               (match rspec.Runspec.parts with
               | Some p -> Runspec.parts_to_string p
               | None -> Printf.sprintf "auto/%d" rspec.Runspec.nprocs))
          (job_spec "tune" source (("spec", Runspec.to_json rspec) :: measure)))
      (Tune.points ?base grid (Driver.load source))
  in
  Tune.make_result ~program ~grid
    (List.map Tune.entry_of_json (run_jobs sw ~table:"tune" jobs))

let tune_table ?(grid = Tune.Default) ?sweep () =
  let sw = fresh_sweep sweep in
  List.map
    (fun (program, source, measure) ->
      let measure_source =
        (* wall measurement is nondeterministic, so it is confined to
           the wide grid: default-grid tables stay byte-reproducible *)
        match grid with Tune.Wide -> Some (measure ()) | _ -> None
      in
      tune_program ~grid ?measure_source ~sweep:sw ~program
        ~source:(source ()) ())
    tune_cases

(* ------------------------------------------------------------------ *)
(* Machine-readable rendering (BENCH_tables.json)                      *)
(* ------------------------------------------------------------------ *)

let tables_json ?sweep () =
  let sw = fresh_sweep sweep in
  (* run in document order, so "sched" lists every table's batches *)
  let sections =
    List.map
      (fun (name, rows) -> (name, J.List (rows ())))
      [
        ("table1", fun () -> table1 ~sweep:sw ());
        ("table2", fun () -> table2 ~sweep:sw ());
        ("table3", fun () -> table3 ~sweep:sw ());
        ("table4", fun () -> table4 ~sweep:sw ());
        ("table5", fun () -> table5 ~sweep:sw ());
        ( "validation",
          fun () -> List.map (fun v -> v.vr_row) (validate_model ~sweep:sw ()) );
        ("engine", fun () -> engine_bench ~sweep:sw ());
        ("resilience", fun () -> chaos_bench ~sweep:sw ());
        ( "tune",
          fun () -> List.map Tune.result_to_json (tune_table ~sweep:sw ()) );
      ]
  in
  J.Obj
    ((("schema", J.Str "autocfd-bench/1") :: sections)
    @ [
        ( "sched",
          Report.sched_summary_json ~stale:(sweep_stale sw) (sweep_stats sw) );
      ])
