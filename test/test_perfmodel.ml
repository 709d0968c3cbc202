(** Tests for the analytic performance model: census accounting, the
    memory slowdown curve, and the qualitative table shapes the paper
    reports (dip at 4 processors for the aerofoil, monotone efficiency
    growth with grid density, superlinear speedup past the memory knee). *)

module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module M = Autocfd_perfmodel.Model
module P = Autocfd_partition

let machine = M.pentium_cluster

let plan_of src parts =
  let t = D.load src in
  (t, D.plan ~spec:(parts_spec parts) t)

let test_census_basic_accounting () =
  let src =
    {|
c$acfd grid(m)
c$acfd status(u, w)
      program t
      parameter (m = 100)
      real u(m), w(m)
      integer i, it
      do i = 1, m
        u(i) = 1.0
      end do
      do it = 1, 10
        do i = 2, m - 1
          w(i) = u(i-1) + u(i+1)
        end do
        do i = 2, m - 1
          u(i) = w(i)
        end do
      end do
      end
|}
  in
  let t, plan = plan_of src [| 2 |] in
  let c = M.census ~gi:t.D.gi ~topo:plan.D.topo plan.D.spmd in
  (* per-rank block flops: roughly 10 frames x 2 loops x 49 pts x few ops *)
  Alcotest.(check bool) "block flops positive" true (c.M.flops_block > 100.);
  Alcotest.(check bool) "no pipeline" true (c.M.flops_pipeline = 0.);
  (* exchanges executed inside the 10-frame loop *)
  Alcotest.(check bool) "exchanges scale with frames" true
    (c.M.exchanges >= 10.);
  Alcotest.(check bool) "bytes counted" true (c.M.exchange_bytes > 0.)

let test_census_halves_with_parts () =
  let src = Autocfd_apps.Sprayer.source ~ni:64 ~nj:32 ~ntime:10 () in
  let t1, plan1 = plan_of src [| 2; 1 |] in
  let t2, plan2 = plan_of src [| 4; 1 |] in
  let c1 = M.census ~gi:t1.D.gi ~topo:plan1.D.topo plan1.D.spmd in
  let c2 = M.census ~gi:t2.D.gi ~topo:plan2.D.topo plan2.D.spmd in
  let r = c1.M.flops_block /. c2.M.flops_block in
  Alcotest.(check bool) "per-rank flops halve 2->4" true (r > 1.7 && r < 2.3)

let test_pipeline_census () =
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 40, n = 20)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = 1.0
        end do
      end do
      do it = 1, 10
        do i = 2, m - 1
          do j = 2, n - 1
            v(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
      end do
      end
|}
  in
  let t, plan = plan_of src [| 4; 1 |] in
  let c = M.census ~gi:t.D.gi ~topo:plan.D.topo plan.D.spmd in
  Alcotest.(check bool) "pipeline flops recorded" true (c.M.flops_pipeline > 0.);
  Alcotest.(check int) "wave stages = 4" 4 c.M.wave_stages;
  Alcotest.(check bool) "pipe messages" true (c.M.pipe_msgs > 0.);
  Alcotest.(check bool) "stall time recorded" true (c.M.stall_flops > 0.)

let test_slowdown_curve () =
  let s x = M.memory_slowdown machine x in
  Alcotest.(check (float 1e-9)) "in cache = 1" 1.0 (s 1.0e3);
  Alcotest.(check bool) "monotone" true
    (s 1.0e5 <= s 1.0e6 && s 1.0e6 <= s 1.0e7 && s 1.0e7 <= s 1.0e8);
  Alcotest.(check bool) "bounded" true
    (s 1.0e12 < 1.0 +. machine.M.cache_penalty +. machine.M.mem_penalty +. 0.01)

let test_prediction_consistency () =
  (* sequential prediction equals parallel prediction on a 1x1 grid of
     ranks (no communication, same flops) *)
  let src = Autocfd_apps.Sprayer.source ~ni:60 ~nj:30 ~ntime:20 () in
  let t = D.load src in
  let seq = M.predict_sequential machine ~gi:t.D.gi t.D.inlined in
  Alcotest.(check bool) "positive time" true (seq.M.time > 0.);
  let plan = D.plan ~spec:(parts_spec [| 1; 1 |]) t in
  let par =
    M.predict_parallel machine ~gi:t.D.gi ~topo:plan.D.topo plan.D.spmd
  in
  Alcotest.(check bool) "no comm on one rank" true (par.M.comm_time = 0.);
  let ratio = par.M.time /. seq.M.time in
  Alcotest.(check bool) "within 5% of sequential" true
    (ratio > 0.95 && ratio < 1.05)

let test_table2_shape () =
  (* the paper's aerofoil: low efficiency, a dip at 4x1x1 relative to
     2x1x1, recovery at 3x2x1 *)
  let rows = Autocfd.Experiments.table2 () in
  match rows with
  | [ _; p2; p4; p6 ] ->
      let s = Autocfd.Experiments.jf "speedup" in
      Alcotest.(check bool) "speedup at 2 procs is modest (< 1.5)" true
        (s p2 < 1.5);
      Alcotest.(check bool) "dip at 4 procs" true (s p4 < s p2);
      Alcotest.(check bool) "recovery at 6 procs" true (s p6 > s p4);
      Alcotest.(check bool) "6 procs beats 2" true (s p6 > s p2)
  | _ -> Alcotest.fail "expected 4 rows"

let test_table3_shape () =
  (* sprayer parallelizes well: speedups grow with procs, sub-4x at 4 *)
  let rows = Autocfd.Experiments.table3 () in
  match rows with
  | [ _; p2; p3; p4 ] ->
      let s = Autocfd.Experiments.jf "speedup" in
      Alcotest.(check bool) "monotone speedups" true
        (s p2 < s p3 && s p3 < s p4);
      Alcotest.(check bool) "2-proc speedup in [1.4, 2.0]" true
        (s p2 >= 1.4 && s p2 <= 2.0)
  | _ -> Alcotest.fail "expected 4 rows"

let test_table4_shape () =
  (* efficiency rises with grid density and saturates *)
  let rows = Autocfd.Experiments.table4 () in
  let effs = List.map (Autocfd.Experiments.jf "efficiency") rows in
  let rec monotone = function
    | a :: b :: rest -> a <= b +. 0.02 && monotone (b :: rest)
    | _ -> true
  in
  Alcotest.(check bool) "efficiency grows with density" true (monotone effs);
  Alcotest.(check bool) "small grid inefficient" true (List.hd effs < 0.5);
  Alcotest.(check bool) "large grid efficient" true
    (List.nth effs (List.length effs - 1) > 0.75)

let test_table5_superlinear () =
  let rows = Autocfd.Experiments.table5 () in
  match rows with
  | [ p2; p3; _p4 ] ->
      Alcotest.(check (float 1e-6)) "baseline 100%" 1.0
        (Autocfd.Experiments.jf "eff_over_2" p2);
      Alcotest.(check bool) "3 procs superlinear over 2" true
        (Autocfd.Experiments.jf "eff_over_2" p3 > 1.0)
  | _ -> Alcotest.fail "expected 3 rows"

let test_table5_needs_memory_knee () =
  (* ablation: without the memory knee there is no superlinearity *)
  let src = Autocfd_apps.Sprayer.source ~ni:800 ~nj:300 ~ntime:50 () in
  let t = D.load src in
  let flat = { machine with M.mem_penalty = 0.0; cache_penalty = 0.0 } in
  let time parts =
    let plan = D.plan ~spec:(parts_spec parts) t in
    (M.predict_parallel flat ~gi:t.D.gi ~topo:plan.D.topo plan.D.spmd).M.time
  in
  let t2 = time [| 2; 1 |] and t3 = time [| 3; 1 |] in
  let eff3 = t2 *. 2.0 /. (t3 *. 3.0) in
  Alcotest.(check bool) "no superlinearity without the knee" true (eff3 <= 1.0)

let test_model_vs_simulation () =
  (* the analytic prediction and the execution-driven simulated time are
     derived by entirely different mechanisms; they must agree within a
     small factor and be positively related across configurations *)
  let rows = Autocfd.Experiments.validate_model () in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.2f within [0.25, 4]" r.Autocfd.Experiments.vr_ratio)
        true
        (r.Autocfd.Experiments.vr_ratio > 0.25
        && r.Autocfd.Experiments.vr_ratio < 4.0))
    rows

let test_working_set () =
  let t = D.load (Autocfd_apps.Sprayer.source ()) in
  let ws = M.working_set_bytes ~gi:t.D.gi ~points_per_rank:1000 in
  (* 8 status arrays x 1000 pts x 8 bytes *)
  Alcotest.(check (float 1.0)) "ws bytes" 64000.0 ws

let test_calibrate_exact_fit () =
  (* synthetic measurements drawn from a known machine must be recovered
     exactly: flop_time from proportional compute samples, latency and
     bandwidth from affine message timings *)
  let ft = 2.5e-9 and lat = 1.2e-4 and bw = 8e6 in
  let compute =
    List.map (fun f -> (f, ft *. f)) [ 1e6; 3e6; 7e6; 2.2e7 ]
  in
  let comm =
    List.map
      (fun b -> (b, lat +. (float_of_int b /. bw)))
      [ 256; 1024; 8192; 65536 ]
  in
  let c = M.calibrate ~compute ~comm in
  Alcotest.(check (float 1e-15)) "flop_time" ft c.M.cal_flop_time;
  Alcotest.(check (float 1e-8)) "latency" lat c.M.cal_latency;
  Alcotest.(check bool) "bandwidth within 0.1%" true
    (Float.abs (c.M.cal_bandwidth -. bw) /. bw < 1e-3);
  Alcotest.(check (float 1e-9)) "compute R^2 = 1" 1.0 c.M.cal_compute_r2;
  Alcotest.(check (float 1e-9)) "comm R^2 = 1" 1.0 c.M.cal_comm_r2

let test_calibrate_degenerate () =
  (* empty / underdetermined inputs yield zeros (and an infinite
     bandwidth when no slope can be fitted), never an exception *)
  let c = M.calibrate ~compute:[] ~comm:[] in
  Alcotest.(check (float 0.0)) "no compute samples" 0.0 c.M.cal_flop_time;
  Alcotest.(check (float 0.0)) "no comm samples" 0.0 c.M.cal_latency;
  Alcotest.(check bool) "bandwidth unbounded" true
    (c.M.cal_bandwidth = Float.infinity);
  let one = M.calibrate ~compute:[ (1e6, 2e-3) ] ~comm:[ (512, 1e-4) ] in
  Alcotest.(check (float 1e-12)) "single compute point still fits" 2e-9
    one.M.cal_flop_time;
  Alcotest.(check (float 0.0)) "one comm point cannot fit a line" 0.0
    one.M.cal_latency;
  (* identical byte sizes: zero determinant falls back to the mean *)
  let flat =
    M.calibrate ~compute:[] ~comm:[ (1024, 3e-4); (1024, 5e-4) ]
  in
  Alcotest.(check (float 1e-12)) "degenerate line falls back to mean"
    4e-4 flat.M.cal_latency

let test_calibrate_clamped_fit () =
  (* times falling with message size: the least-squares slope is
     negative, so the byte term is dropped and the latency refitted
     alone — the mean time, which leaves R^2 at 0, never below *)
  let comm = [ (1024, 5e-4); (4096, 4e-4); (16384, 2e-4); (65536, 1e-4) ] in
  let c = M.calibrate ~compute:[] ~comm in
  let mean = (5e-4 +. 4e-4 +. 2e-4 +. 1e-4) /. 4.0 in
  Alcotest.(check (float 1e-15)) "latency = mean time" mean c.M.cal_latency;
  Alcotest.(check bool) "no byte term" true
    (c.M.cal_bandwidth = Float.infinity);
  Alcotest.(check (float 1e-12)) "comm R^2 = 0" 0.0 c.M.cal_comm_r2;
  (* a steep line whose intercept would be negative: refitted through
     the origin, so the latency is 0 and the fit no worse than a flat
     line *)
  let steep = [ (1000, 1e-4); (2000, 3e-4); (3000, 5e-4) ] in
  let s = M.calibrate ~compute:[] ~comm:steep in
  Alcotest.(check (float 0.0)) "latency clamped to 0" 0.0 s.M.cal_latency;
  let sxy = (1000. *. 1e-4) +. (2000. *. 3e-4) +. (3000. *. 5e-4) in
  let sxx = (1000. *. 1000.) +. (2000. *. 2000.) +. (3000. *. 3000.) in
  Alcotest.(check (float 1e-6)) "slope through the origin" (sxx /. sxy)
    s.M.cal_bandwidth;
  Alcotest.(check bool) "comm R^2 >= 0" true (s.M.cal_comm_r2 >= 0.0)

let suite =
  [
    ("census accounting", `Quick, test_census_basic_accounting);
    ("census halves with parts", `Quick, test_census_halves_with_parts);
    ("pipeline census", `Quick, test_pipeline_census);
    ("slowdown curve", `Quick, test_slowdown_curve);
    ("prediction consistency", `Quick, test_prediction_consistency);
    ("table 2 shape", `Slow, test_table2_shape);
    ("table 3 shape", `Slow, test_table3_shape);
    ("table 4 shape", `Slow, test_table4_shape);
    ("table 5 superlinear", `Slow, test_table5_superlinear);
    ("table 5 needs memory knee", `Slow, test_table5_needs_memory_knee);
    ("model vs simulation", `Slow, test_model_vs_simulation);
    ("working set", `Quick, test_working_set);
    ("calibrate exact fit", `Quick, test_calibrate_exact_fit);
    ("calibrate degenerate inputs", `Quick, test_calibrate_degenerate);
    ("calibrate clamped comm fit", `Quick, test_calibrate_clamped_fit);
  ]
