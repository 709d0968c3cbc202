(* The four workloads.  Each one sets up once, computes untimed
   correctness references, then runs whole rounds of timed operations
   until its budget is spent, setting up three times before every round
   and timing the reference kernel between them.  With tracing, every
   untraced round is followed by a traced one that also records
   per-layer numbers, so both see the same process warm-up.  Every call
   is timed from the outside and every timed operation is checked. *)

module D = Autocfd.Driver
module E = Autocfd.Experiments
module Runspec = Autocfd.Runspec
module Spmd = Autocfd_interp.Spmd
module Compile = Autocfd_interp.Compile
module P = Autocfd_partition
module Sched = Autocfd_sched
module Prng = Autocfd_util.Prng

type cfg = {
  seed : int;
  seconds : float;  (* measuring budget; 0 runs a single round *)
  trace : bool;
  small : bool;  (* shrunk inputs, for the smoke test *)
  workers : int;  (* fabric worker processes of the sweep workload *)
}

(* ------------------------------------------------------------------ *)
(* Timed operations, failures and samples                              *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* the first few, newest first *)
  mutable busy : float;  (* seconds inside timed ops this round *)
  mutable after : string -> float -> unit;  (* sees each op's sample, between ops *)
}

let size cfg s = if cfg.small then Inputs.Small else s

let tally () = { attempted = 0; failed = 0; errors = []; busy = 0.0; after = (fun _ _ -> ()) }

let fail tally msg =
  tally.failed <- tally.failed + 1;
  if List.length tally.errors < 8 then tally.errors <- msg :: tally.errors

(* named sample lists *)
let bag () : (string, float list) Hashtbl.t = Hashtbl.create 64

let add b k v =
  Hashtbl.replace b k (v :: Option.value ~default:[] (Hashtbl.find_opt b k))

(* time [f] alone and add its wall time to [b] as a sample of [k]; the
   untimed [check] names what is wrong with its result, if anything.  An
   exception counts as a failure. *)
let op tally b k ~check f =
  tally.attempted <- tally.attempted + 1;
  let t0 = Stats.now () in
  let r = try Ok (f ()) with e -> Error (Printexc.to_string e) in
  let dt = Stats.now () -. t0 in
  tally.busy <- tally.busy +. dt;
  add b k dt;
  let r =
    match r with
    | Ok v ->
        Option.iter (fail tally) (check v);
        Some v
    | Error e ->
        fail tally e;
        None
  in
  tally.after k dt;
  (r, dt)

let samples b k = Option.value ~default:[] (Hashtbl.find_opt b k)
let med b k = Stats.median (samples b k)
let key ~traced k = if traced then "traced." ^ k else k

(* A workload's set-up.  The first one, in a fresh process, is a warm-up
   whose state the correctness references are computed from; the
   workload then sets up again before every round, and the round uses the
   newest set-up, the older ones being disposed of.  Each timed set-up
   starts from a fully collected heap, so it does not pay for the garbage
   of the one before. *)
type 'a setup = { make : unit -> 'a; dispose : 'a -> unit; mutable current : 'a }

let setup ?(dispose = ignore) make = { make; dispose; current = make () }

(* replace the current set-up by a new one; its wall time *)
let redo s =
  s.dispose s.current;
  Gc.full_major ();
  let v, dt = Stats.time s.make in
  s.current <- v;
  dt

(* the geometric mean, so that two apps of different speed do not make a
   bimodal median *)
let geomean xs = exp (Stats.sum (List.map log xs) /. float_of_int (List.length xs))

(* seconds of op time between two reference measurements *)
let span = 0.25

(* the samples of [k], or the warm-up round's when no other round ran *)
let steady b k = match samples b k with [] -> samples b ("warm-up." ^ k) | l -> l

(* Rounds until the budget is spent: one round, then more while another
   of median length still fits.  An untraced round sets up three times
   between two reference measurements (the reference kernel on the
   [domains] the workload keeps busy), then runs its ops, measuring the
   reference again after every [span] seconds of op time and after the
   last op.  A set-up time is divided by the geometric mean of the
   measurements around the set-ups, an op time by that of the
   measurements just before and just after it.  On a 2-vCPU virtual
   machine shared with other tenants, the speed of the same code changed
   by up to 40% from one set of runs to the next and switched between two
   levels within a second; a ratio to measurements taken moments apart
   cancels that.  [b] gets "setup/ref" per round, "K/ref" per op of kind
   K, and at the end "round/ref": the sum over the ops of a round of
   each op's median ratio over rounds, a round's ops being the same ops
   in the same order every time.  The first round's ratios are kept
   apart, under "warm-up.": the first reference measurement and the
   first cold pass of [sweep] in a process took up to twice as long as
   later ones. *)
let drive cfg tally b ~domains s round =
  let rounds = ref 0 in
  let warm k = if !rounds = 1 then "warm-up." ^ k else k in
  let last = ref nan (* the newest reference measurement *)
  and pending = ref [] (* the ops since: index in the round, kind, time *)
  and ops = ref 0 (* ops so far in this round *) in
  let reference () =
    let r = Reference.measure ~domains in
    add b "ref" r;
    let around = sqrt (!last *. r) in
    List.iter
      (fun (i, k, dt) ->
        add b (warm (k ^ "/ref")) (dt /. around);
        add b (warm (Printf.sprintf "op#%d/ref" i)) (dt /. around))
      !pending;
    pending := [];
    last := r;
    around
  in
  let normalize k dt =
    pending := (!ops, k, dt) :: !pending;
    incr ops;
    if Stats.sum (List.map (fun (_, _, dt) -> dt) !pending) >= span then ignore (reference ())
  in
  let one traced =
    tally.busy <- 0.0;
    round ~traced;
    add b (key ~traced "round") tally.busy
  in
  let untraced () =
    incr rounds;
    ignore (reference ());
    let setups = List.init (if cfg.small then 2 else 3) (fun _ -> redo s) in
    List.iter (add b "setup") setups;
    add b (warm "setup/ref") (Stats.median setups /. reference ());
    ops := 0;
    tally.after <- normalize;
    Fun.protect ~finally:(fun () -> tally.after <- (fun _ _ -> ())) (fun () -> one false);
    if !pending <> [] then ignore (reference ())
  in
  let t0 = Stats.now () in
  let rec go walls =
    let (), wall =
      Stats.time (fun () ->
          untraced ();
          if cfg.trace then one true)
    in
    let walls = wall :: walls in
    if Stats.now () -. t0 +. Stats.median walls <= cfg.seconds then go walls
  in
  go [];
  add b "round/ref"
    (Stats.sum
       (List.init !ops (fun i -> Stats.median (steady b (Printf.sprintf "op#%d/ref" i)))))

(* The end-to-end metrics are medians of the ratios [drive] records:
   setup_s stated in seconds at [Reference.nominal_s] per reference
   kernel, the op ratio as the geometric mean over [kinds] of each kind's
   median.  The raw wall times are per-layer metrics. *)
let end_to_end b kinds =
  let ratio k = Stats.median (steady b k) in
  [
    ("setup_s", Reference.nominal_s *. ratio "setup/ref");
    ("op_p50_ref", geomean (List.map (fun k -> ratio (k ^ "/ref")) kinds));
    ("round_ref", ratio "round/ref");
    ("bench.setup_ms", 1e3 *. med b "setup");
    ("bench.op_p50_ms", 1e3 *. geomean (List.map (med b) kinds));
    ("bench.round_s", med b "round");
    ("bench.ref_ms", 1e3 *. med b "ref");
  ]

(* traced / untraced medians per kind, averaged over kinds, minus one *)
let trace_overhead b kinds =
  let ratios = List.map (fun k -> med b ("traced." ^ k) /. med b k) kinds in
  (Stats.sum ratios /. float_of_int (List.length ratios)) -. 1.0

let all_phases = Phases.names @ [ "perfmodel.predict" ]

(* one round's accumulated phase times, then their medians in ms *)
let add_phases b acc = List.iter (fun p -> add b p (Phases.get acc p)) all_phases
let phase_metrics b = List.map (fun p -> (p ^ "_ms", 1e3 *. med b p)) all_phases
let tracer traced = if traced then Some (Autocfd_obs.Trace.create ()) else None

(* ------------------------------------------------------------------ *)
(* precompile: every bundled program x every feasible 2/4/6-rank       *)
(* partition x {optimal, first-fit} x fission {on, off}.  One op is     *)
(* load -> plan -> MPI emission -> fused lowering of the SPMD unit.     *)
(* ------------------------------------------------------------------ *)

module Precompile = struct
  type config = { source : string; spec : Runspec.t }

  let feasible grid parts =
    match P.Topology.create ~grid ~parts with
    | _ -> true
    | exception Invalid_argument _ -> false

  let configs cfg =
    let g = Prng.create cfg.seed in
    let ranks = if cfg.small then [ 2 ] else [ 2; 4; 6 ] in
    List.concat_map
      (fun (p : Inputs.program) ->
        let grid = (D.load p.source).D.gi.Autocfd_analysis.Grid_info.grid in
        List.concat_map (fun n -> P.Topology.factorizations n (Array.length grid)) ranks
        |> List.filter (feasible grid)
        |> List.concat_map (fun parts ->
               List.concat_map
                 (fun combine ->
                   List.map
                     (fun fission ->
                       {
                         source = p.source;
                         spec =
                           Runspec.(
                             default |> with_parts (Some parts)
                             |> with_combine combine |> with_fission fission);
                       })
                     [ true; false ])
                 [ Autocfd_syncopt.Optimizer.Optimal; First_fit ]))
      (Inputs.programs ~size:(size cfg Paper) g)
    |> Inputs.shuffle g

  let reparses mpi =
    match Autocfd_fortran.Parser.parse mpi with
    | _ -> None
    | exception e ->
        Some ("emitted MPI source does not re-parse: " ^ Printexc.to_string e)

  let plan_op c () =
    let p = D.plan ~spec:c.spec (D.load ~spec:c.spec c.source) in
    let mpi = D.mpi_source p in
    (p, mpi, Compile.compile ~fuse:true p.D.spmd)

  (* the same op through the phase replica *)
  let phased_op acc c () =
    let p = Phases.plan acc c.spec (Phases.load acc c.spec c.source) in
    let mpi = Phases.mpi_source acc p in
    (p, mpi, Phases.lower acc p)

  let run cfg tally =
    let s = setup (fun () -> configs cfg) in
    let b = bag () in
    let counts = Hashtbl.create 8 in
    let count k n =
      Hashtbl.replace counts k (n + Option.value ~default:0 (Hashtbl.find_opt counts k))
    in
    let checked_replica = ref false in
    (* both kinds of round do the same untimed work after each op, so
       the traced ops differ from the untraced ones only by the timers *)
    let round ~traced =
      let acc = Phases.create () in
      Hashtbl.reset counts;
      List.iter
        (fun c ->
          let check (p, mpi, _) =
            match reparses mpi with
            | None when traced && not (!checked_replica || Phases.check c.spec c.source p) ->
                Some "the phase replica's SPMD unit differs from Driver.plan's"
            | r -> r
          in
          let r, _ =
            op tally b (key ~traced "op") ~check (if traced then phased_op acc c else plan_op c)
          in
          Option.iter
            (fun ((p : D.plan), mpi, cu) ->
              ignore (Phases.predict acc p);
              count "syncopt.syncs_before" p.D.opt.Autocfd_syncopt.Optimizer.before;
              count "syncopt.syncs_after" p.D.opt.Autocfd_syncopt.Optimizer.after;
              count "codegen.mpi_bytes" (String.length mpi);
              let cov = Compile.coverage cu in
              count "interp.nests_total" (List.length cov);
              count "interp.nests_fused"
                (List.length (List.filter (fun e -> e.Compile.cov_fused) cov)))
            r)
        s.current;
      if traced then begin
        checked_replica := true;
        add_phases b acc;
        (* share of the op wall time the phase timers account for *)
        add b "coverage" (Stats.sum (List.map (Phases.get acc) Phases.names) /. tally.busy)
      end
    in
    drive cfg tally b ~domains:1 s round;
    end_to_end b [ "op" ]
    @
    if not cfg.trace then []
    else
      phase_metrics b
      @ Hashtbl.fold (fun k n l -> (k, float_of_int n) :: l) counts []
      @ [
          ("bench.phase_coverage", med b "coverage");
          ("bench.trace_overhead", trace_overhead b [ "op" ]);
        ]
end

(* ------------------------------------------------------------------ *)
(* simulate and domains: the two paper applications                     *)
(* ------------------------------------------------------------------ *)

type app = {
  name : string;
  source : string;
  spec : Runspec.t;
  t : D.t;
  plan : D.plan;
}

(* load and plan the paper apps on [parts_of], compile what the timed
   ops execute, and order them by the seed *)
let load_apps cfg ~grids ~engine ~seq parts_of =
  let g = Prng.create cfg.seed in
  Inputs.programs ~size:(size cfg grids) g
  |> List.filter_map (fun (p : Inputs.program) ->
         Option.map
           (fun parts ->
             let spec =
               Runspec.(default |> with_engine engine |> with_parts (Some parts))
             in
             let t = D.load ~spec p.source in
             let plan = D.plan ~spec t in
             ignore (Compile.of_unit ~fuse:true plan.D.spmd);
             if seq then ignore (Compile.of_unit ~fuse:true t.D.inlined);
             { name = p.name; source = p.source; spec; t; plan })
           (parts_of p.name))
  |> Inputs.shuffle g

let run_kinds apps = List.map (fun a -> "run." ^ a.name) apps

(* the planning a set-up does, phase by phase *)
let replan b apps =
  let acc = Phases.create () in
  List.iter
    (fun a ->
      let plan = Phases.plan acc a.spec (Phases.load acc a.spec a.source) in
      ignore (Phases.lower acc plan))
    apps;
  add_phases b acc

let per a k v = (Catalogue.app_metric k a.name, v)

let seq_metrics b a (seq : D.seq_result) (r : Spmd.result) =
  let seq_s = med b ("seq." ^ a.name) and run_s = med b ("run." ^ a.name) in
  [
    per a "interp.seq_s" seq_s;
    per a "interp.seq_mflops" (seq.D.sq_flops /. seq_s /. 1e6);
    per a "interp.flops" seq.D.sq_flops;
    per a "spmd.run_s" run_s;
    per a "spmd.partition_overhead_s" (run_s -. seq_s);
    per a "spmd.flop_inflation"
      (Array.fold_left ( +. ) 0.0 r.Spmd.flops_per_rank /. seq.D.sq_flops);
  ]

let diverges (seq : D.seq_result) (r : Spmd.result) =
  if List.exists (fun (_, d) -> d <> 0.0) (D.max_divergence seq r) then
    Some "gathered arrays differ from the sequential run"
  else if r.Spmd.output <> seq.D.sq_output then
    Some "WRITE output differs from the sequential run"
  else None

(* Driver.run on the simulated cluster: aerofoil 2x2x1, sprayer 2x2 *)
module Simulate = struct
  let parts = function
    | "aerofoil" -> Some [| 2; 2; 1 |]
    | "sprayer" -> Some [| 2; 2 |]
    | _ -> None

  let run cfg tally =
    let s = setup (fun () -> load_apps cfg ~grids:L2 ~engine:Spmd.Fused ~seq:false parts) in
    let apps = s.current in
    let b = bag () in
    let seqs =
      List.map
        (fun a ->
          let seq, dt = Stats.time (fun () -> D.run_seq ~spec:a.spec a.t) in
          add b ("seq." ^ a.name) dt;
          (a.name, seq))
        apps
    in
    let last = Hashtbl.create 2 in
    let round ~traced =
      if traced then replan b s.current;
      List.iter
        (fun a ->
          let spec = Runspec.with_tracer (tracer traced) a.spec in
          let r, _ =
            op tally b
              (key ~traced ("run." ^ a.name))
              ~check:(diverges (List.assoc a.name seqs))
              (fun () -> D.run ~spec a.plan)
          in
          Option.iter (Hashtbl.replace last a.name) r)
        s.current
    in
    drive cfg tally b ~domains:1 s round;
    end_to_end b (run_kinds apps)
    @
    if not cfg.trace then []
    else
      phase_metrics b
      @ List.concat_map
          (fun a ->
            let r = Hashtbl.find last a.name in
            let st = r.Spmd.stats in
            seq_metrics b a (List.assoc a.name seqs) r
            @ [
                per a "mpsim.messages" (float_of_int st.Autocfd_mpsim.Sim.messages);
                per a "mpsim.bytes" (float_of_int st.Autocfd_mpsim.Sim.bytes);
                per a "mpsim.collectives" (float_of_int st.Autocfd_mpsim.Sim.collectives);
              ])
          apps
      @ [ ("bench.trace_overhead", trace_overhead b (run_kinds apps)) ]
end

(* The Domains engine on 2 ranks (aerofoil 2x1x1, sprayer 2x1), each run
   paired with a sequential run of the same program *)
module Domains = struct
  let parts = function
    | "aerofoil" -> Some [| 2; 1; 1 |]
    | "sprayer" -> Some [| 2; 1 |]
    | _ -> None

  (* the program state the Domains engine must reproduce bit for bit *)
  let same_state (sim : Spmd.result) (r : Spmd.result) =
    let same (na, (x : Autocfd_interp.Value.arr)) (nb, (y : Autocfd_interp.Value.arr)) =
      na = nb && x.bounds = y.bounds && x.data = y.data
    in
    if not (List.equal same sim.Spmd.gathered r.Spmd.gathered) then
      Some "gathered arrays differ from the simulator"
    else if sim.Spmd.scalars <> r.Spmd.scalars then Some "scalars differ from the simulator"
    else if sim.Spmd.output <> r.Spmd.output then
      Some "WRITE output differs from the simulator"
    else if sim.Spmd.flops_per_rank <> r.Spmd.flops_per_rank then
      Some "flop counts differ from the simulator"
    else None

  let fmax = Array.fold_left Float.max neg_infinity
  let fmin = Array.fold_left Float.min infinity

  (* measured from outside: the run's wall time beyond the ranks' body *)
  let shm_samples b a ~wall (ds : Spmd.domain_stats) =
    let add k v = add b (Catalogue.app_metric k a.name) v in
    add "shm.wall_s" ds.Spmd.ds_wall;
    add "shm.spawn_join_s" (wall -. ds.Spmd.ds_wall);
    add "shm.compute_s" (fmax ds.Spmd.ds_compute);
    add "shm.barrier_wait_s" (fmax ds.Spmd.ds_barrier_wait);
    add "shm.barrier_calls" (float_of_int ds.Spmd.ds_barrier_calls);
    add "shm.imbalance" (fmax ds.Spmd.ds_compute /. fmin ds.Spmd.ds_compute);
    add "shm.comm_s" (Stats.sum (List.map snd ds.Spmd.ds_comm_samples));
    add "shm.comm_bytes"
      (float_of_int (List.fold_left (fun s (n, _) -> s + n) 0 ds.Spmd.ds_comm_samples))

  let calibration a (ds : Spmd.domain_stats) =
    let module M = Autocfd_perfmodel.Model in
    let cal =
      M.calibrate
        ~compute:
          (Array.to_list
             (Array.map2 (fun f s -> (f, s)) ds.Spmd.ds_flops ds.Spmd.ds_compute))
        ~comm:ds.Spmd.ds_comm_samples
    in
    [
      per a "perfmodel.cal_flop_time" cal.M.cal_flop_time;
      per a "perfmodel.cal_latency" cal.M.cal_latency;
      per a "perfmodel.cal_comm_r2" cal.M.cal_comm_r2;
    ]

  let run cfg tally =
    let s = setup (fun () -> load_apps cfg ~grids:Paper ~engine:Spmd.Domains ~seq:true parts) in
    let apps = s.current in
    let sims =
      List.map
        (fun a -> (a.name, D.run ~spec:(Runspec.with_engine Spmd.Fused a.spec) a.plan))
        apps
    in
    let b = bag () in
    let last = Hashtbl.create 2 and last_seq = Hashtbl.create 2 in
    let round ~traced =
      if traced then replan b s.current;
      List.iter
        (fun a ->
          let sim = List.assoc a.name sims in
          let spec = Runspec.with_tracer (tracer traced) a.spec in
          let r, dt =
            op tally b
              (key ~traced ("run." ^ a.name))
              ~check:(same_state sim)
              (fun () -> D.run ~spec a.plan)
          in
          let seq, st =
            op tally b ("seq." ^ a.name)
              ~check:(fun seq -> diverges seq sim)
              (fun () -> D.run_seq ~spec:a.spec a.t)
          in
          add b ("speedup." ^ a.name) (st /. dt);
          Option.iter
            (fun r ->
              Option.iter (shm_samples b a ~wall:dt) r.Spmd.domains;
              Hashtbl.replace last a.name r)
            r;
          Option.iter (Hashtbl.replace last_seq a.name) seq)
        s.current
    in
    drive cfg tally b ~domains:2 s round;
    end_to_end b (run_kinds apps)
    @
    if not cfg.trace then []
    else
      phase_metrics b
      @ List.concat_map
          (fun a ->
            let r = Hashtbl.find last a.name in
            let shm =
              List.filter_map
                (fun (x : Catalogue.metric) ->
                  if x.name = "shm.speedup" then
                    Some (per a x.name (med b ("speedup." ^ a.name)))
                  else if String.starts_with ~prefix:"shm." x.name then
                    Some (per a x.name (med b (Catalogue.app_metric x.name a.name)))
                  else None)
                Catalogue.per_app
            in
            seq_metrics b a (Hashtbl.find last_seq a.name) r
            @ shm
            @ calibration a (Option.get r.Spmd.domains))
          apps
      @ [ ("bench.trace_overhead", trace_overhead b (run_kinds apps)) ]
end

(* ------------------------------------------------------------------ *)
(* sweep: Tables 1-5, model validation and the default-grid tune of     *)
(* both apps through Experiments.sweep.  A round is one cold pass (two  *)
(* pool domains, emptied cache), three warm passes, one pass without a  *)
(* cache and one pass over the fabric's worker processes.               *)
(* ------------------------------------------------------------------ *)

module Sweep = struct
  let render sw =
    let validation = E.validate_model ~sweep:sw () in
    let t1 = E.render_table1 (E.table1 ~sweep:sw ()) in
    let t2 = E.render_perf ~title:"Table 2" (E.table2 ~sweep:sw ()) in
    let t3 = E.render_perf ~title:"Table 3" (E.table3 ~sweep:sw ()) in
    let t4 = E.render_table4 (E.table4 ~sweep:sw ()) in
    let t5 = E.render_table5 (E.table5 ~sweep:sw ()) in
    let tune = E.tune_table ~sweep:sw () in
    ( String.concat "\n"
        ([ t1; t2; t3; t4; t5; E.render_validation validation ]
        @ List.map Autocfd.Tune.render tune),
      validation,
      tune )

  type env = { dir : string; cache : Sched.Cache.t; fabric : Sched.Fabric.t }

  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path

  let close env =
    Sched.Fabric.shutdown env.fabric;
    rm_rf env.dir;
    try Sys.rmdir "_benchmark" with Sys_error _ -> ()  (* kept when not empty *)

  (* cache directory and fabric socket under the working directory; the
     workers re-exec this binary's [worker] verb *)
  let open_env cfg =
    let dir = Printf.sprintf "_benchmark/sweep-%d" (Unix.getpid ()) in
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ "_benchmark"; dir ];
    let cache = Sched.Cache.create ~dir:(Filename.concat dir "cache") () in
    let fabric =
      Sched.Fabric.create ~listen:(Sched.Fabric.Unix_path (Filename.concat dir "fb.sock")) ()
    in
    let env = { dir; cache; fabric } in
    let addr = Sched.Fabric.addr_to_string (Sched.Fabric.addr fabric) in
    match
      for _ = 1 to cfg.workers do
        ignore
          (Sched.Fabric.spawn_worker fabric
             ~argv:[| Sys.executable_name; "worker"; "--connect"; addr |])
      done;
      (* a first batch waits for the workers' hello *)
      ignore (E.table1 ~sweep:(E.sweep ~fabric ()) ())
    with
    | () -> env
    | exception e ->
        close env;
        raise e

  (* scheduler totals over every table of one pass *)
  let fold sw f init = List.fold_left (fun acc (_, s) -> f acc s) init (E.sweep_stats sw)
  let count sw field = fold sw (fun n s -> n + field s) 0

  let durations sw outcome =
    fold sw
      (fun l (s : Sched.Pool.stats) ->
        List.filter_map
          (fun (e : Sched.Pool.event) ->
            if outcome e.Sched.Pool.pe_outcome then Some (e.pe_t1 -. e.pe_t0) else None)
          s.Sched.Pool.ps_events
        @ l)
      []

  let utilization sw =
    let busy, cap =
      fold sw
        (fun (busy, cap) (s : Sched.Pool.stats) ->
          ( busy +. Stats.sum (Array.to_list s.ps_busy),
            cap +. (s.ps_elapsed *. float_of_int (Array.length s.ps_busy)) ))
        (0.0, 0.0)
    in
    busy /. cap

  let ran = function Sched.Pool.Ran -> true | _ -> false
  let hit = function Sched.Pool.Hit -> true | _ -> false

  let run cfg tally =
    let s = setup ~dispose:close (fun () -> open_env cfg) in
    (* [close] may see an environment twice: it is idempotent *)
    Fun.protect ~finally:(fun () -> close s.current) @@ fun () ->
    let reference, validation, tune = render (E.sweep ()) in
    let b = bag () in
    let corrupt = ref 0 in
    let last = Hashtbl.create 4 in
    (* one timed pass; [check] inspects its scheduler statistics *)
    let pass ~traced kind ?cache ?fabric ~check () =
      let sw = E.sweep ~jobs:2 ?cache ?fabric ?tracer:(tracer traced) () in
      let check out =
        if out <> reference then
          Some (kind ^ " pass renders differently from the serial reference")
        else check sw
      in
      let _, dt =
        op tally b (key ~traced kind) ~check (fun () ->
            let out, _, _ = render sw in
            out)
      in
      corrupt := !corrupt + count sw (fun s -> s.ps_corrupt);
      Hashtbl.replace last kind sw;
      (sw, dt)
    in
    let none _ = None in
    let round ~traced =
      let env = s.current in
      Sched.Cache.clear env.cache;
      let cold, cold_dt = pass ~traced "cold" ~cache:env.cache ~check:none () in
      List.iter (add b "cold.job") (durations cold ran);
      add b "cold.utilization" (utilization cold);
      for _ = 1 to 3 do
        let warm, _ =
          pass ~traced "warm" ~cache:env.cache
            ~check:(fun sw ->
              match count sw (fun s -> s.ps_misses) with
              | 0 -> None
              | n -> Some (Printf.sprintf "warm pass missed the cache %d times" n))
            ()
        in
        List.iter (add b "warm.hit") (durations warm hit)
      done;
      let _, nocache_dt = pass ~traced "nocache" ~check:none () in
      add b "store_overhead" (cold_dt -. nocache_dt);
      let fab, _ =
        pass ~traced "fabric" ~fabric:env.fabric
          ~check:(fun _ ->
            if (Sched.Fabric.stats env.fabric).fs_degraded then
              Some "fabric pass degraded to the in-process pool"
            else None)
          ()
      in
      List.iter (add b "fabric.job") (durations fab ran)
    in
    drive cfg tally b ~domains:2 s round;
    end_to_end b [ "cold" ]
    @
    if not cfg.trace then []
    else
      (* the fabric of the last set-up: its last untraced and traced round *)
      let fs = Sched.Fabric.stats s.current.fabric in
      let last_count kind field = float_of_int (count (Hashtbl.find last kind) field) in
      let ratios = List.map (fun (r : E.validation_row) -> r.vr_ratio) validation in
      let int n = float_of_int n in
      [
        ("sched.cold_s", med b "cold");
        ("sched.warm_s", med b "warm");
        ("sched.nocache_s", med b "nocache");
        ("sched.cold.job_p50_ms", 1e3 *. med b "cold.job");
        ("sched.cold.utilization", med b "cold.utilization");
        ("sched.cold.misses", last_count "cold" (fun s -> s.ps_misses));
        ("sched.warm.hit_p50_ms", 1e3 *. med b "warm.hit");
        ("sched.warm.hits", last_count "warm" (fun s -> s.ps_hits));
        ("sched.warm.misses", last_count "warm" (fun s -> s.ps_misses));
        ("cache.store_overhead_s", med b "store_overhead");
        ("cache.corrupt", int !corrupt);
        ("fabric.pass_s", med b "fabric");
        ("fabric.job_p50_ms", 1e3 *. med b "fabric.job");
        ("fabric.retransmits", int fs.fs_retransmits);
        ("fabric.retries", int fs.fs_retries);
        ("fabric.requeues", int fs.fs_requeues);
        ("fabric.corrupt_frames", int fs.fs_corrupt_frames);
        ("fabric.dup_suppressed", int fs.fs_dup_suppressed);
        ("fabric.degraded", if fs.fs_degraded then 1.0 else 0.0);
        ("perfmodel.validation_ratio_min", List.fold_left Float.min infinity ratios);
        ("perfmodel.validation_ratio_max", List.fold_left Float.max neg_infinity ratios);
        ( "tune.points",
          int (List.fold_left (fun n (r : Autocfd.Tune.result) -> n + r.tr_total) 0 tune) );
        ("bench.trace_overhead", trace_overhead b [ "cold" ]);
      ]
end

let run name cfg tally =
  let metrics =
    match name with
    | "precompile" -> Precompile.run cfg tally
    | "simulate" -> Simulate.run cfg tally
    | "domains" -> Domains.run cfg tally
    | "sweep" -> Sweep.run cfg tally
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  ("bench.nproc", float_of_int (Domain.recommended_domain_count ())) :: metrics
