(* Every metric the benchmark emits: name, unit, which direction is
   better.  BENCHMARK.json lists the same metrics; the smoke test fails
   when the two disagree. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m better unit_ name = { name; unit_; better }

let workloads = [ "precompile"; "simulate"; "domains"; "sweep" ]
let apps = [ "aerofoil"; "sprayer" ]

(* every workload reports all of these (see README.md for what an op
   and a round are on each workload) *)
let end_to_end =
  [ m Lower "s" "setup_s"; m Lower "ref" "op_p50_ref"; m Lower "ref" "round_ref" ]

let per_app =
  [
    m Lower "s" "interp.seq_s"; m Higher "Mflop/s" "interp.seq_mflops";
    m Lower "count" "interp.flops"; m Lower "s" "spmd.run_s";
    m Lower "s" "spmd.partition_overhead_s"; m Lower "ratio" "spmd.flop_inflation";
    m Lower "count" "mpsim.messages"; m Lower "bytes" "mpsim.bytes";
    m Lower "count" "mpsim.collectives"; m Lower "s" "shm.wall_s";
    m Lower "s" "shm.spawn_join_s"; m Lower "s" "shm.compute_s";
    m Lower "s" "shm.barrier_wait_s"; m Lower "count" "shm.barrier_calls";
    m Lower "ratio" "shm.imbalance"; m Lower "s" "shm.comm_s";
    m Lower "bytes" "shm.comm_bytes"; m Higher "x" "shm.speedup";
    m Lower "s/flop" "perfmodel.cal_flop_time"; m Lower "s" "perfmodel.cal_latency";
    m Higher "ratio" "perfmodel.cal_comm_r2";
  ]

let app_metric name app = name ^ "." ^ app

(* per-layer metrics: idle layers report 0 on a workload *)
let per_layer =
  List.map (fun p -> m Lower "ms" (p ^ "_ms")) (Phases.names @ [ "perfmodel.predict" ])
  @ [
      m Lower "count" "syncopt.syncs_before"; m Lower "count" "syncopt.syncs_after";
      m Lower "bytes" "codegen.mpi_bytes"; m Higher "count" "interp.nests_fused";
      m Lower "count" "interp.nests_total"; m Higher "ratio" "bench.phase_coverage";
      m Lower "ratio" "bench.trace_overhead"; m Higher "count" "bench.nproc";
      m Lower "ms" "bench.setup_ms"; m Lower "ms" "bench.op_p50_ms"; m Lower "s" "bench.round_s";
      m Lower "ms" "bench.ref_ms";
    ]
  @ List.concat_map
      (fun app -> List.map (fun x -> { x with name = app_metric x.name app }) per_app)
      apps
  @ [
      m Lower "s" "sched.cold_s"; m Lower "s" "sched.warm_s";
      m Lower "s" "sched.nocache_s"; m Lower "ms" "sched.cold.job_p50_ms";
      m Higher "ratio" "sched.cold.utilization"; m Lower "count" "sched.cold.misses";
      m Lower "ms" "sched.warm.hit_p50_ms"; m Higher "count" "sched.warm.hits";
      m Lower "count" "sched.warm.misses"; m Lower "s" "cache.store_overhead_s";
      m Lower "count" "cache.corrupt"; m Lower "s" "fabric.pass_s";
      m Lower "ms" "fabric.job_p50_ms"; m Lower "count" "fabric.retransmits";
      m Lower "count" "fabric.retries"; m Lower "count" "fabric.requeues";
      m Lower "count" "fabric.corrupt_frames"; m Lower "count" "fabric.dup_suppressed";
      m Lower "flag" "fabric.degraded"; m Higher "ratio" "perfmodel.validation_ratio_min";
      m Higher "ratio" "perfmodel.validation_ratio_max"; m Higher "count" "tune.points";
    ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"
