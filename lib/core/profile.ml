(* Kernel-level profiler: run one plan traced, attribute virtual compute
   time to named field-loop nests, and render the hot-nest table,
   per-sync-point latency histograms and pool utilization that the
   [autocfd profile] verb prints. *)

module Obs = Autocfd_obs
module Sched = Autocfd_sched
module I = Autocfd_interp
module J = Obs.Json

type t = {
  pf_label : string;
  pf_metrics : Obs.Metrics.t;
  pf_pool : Sched.Pool.stats;
  pf_flops : float;
}

let run ?(spec = Runspec.default) ?(label = "profile") plan =
  let tracer =
    match spec.Runspec.tracer with
    | Some tr -> tr
    | None -> Obs.Trace.create ()
  in
  let spec = Runspec.with_tracer (Some tracer) spec in
  let flops = ref 0.0 in
  let job =
    Sched.Job.make ~label
      (* the serialized spec is the whole configuration point — run-time
         knobs and the plan-time knobs the plan was built under — so the
         key names exactly what this profile measured *)
      ~key:(J.Obj [ ("profile", J.Str label); ("spec", Runspec.to_json spec) ])
      (fun () ->
        let r = Driver.run ~spec plan in
        flops :=
          Array.fold_left ( +. ) 0.0 r.I.Spmd.flops_per_rank;
        J.Obj [ ("elapsed", J.Float r.I.Spmd.stats.Autocfd_mpsim.Sim.elapsed) ])
  in
  (* one uncached job through the pool, sharing the run's tracer, so the
     scheduler's wall-clock events land in the same trace as the
     simulator's virtual-clock events *)
  let results, stats = Sched.Pool.run ~jobs:1 ~tracer [ job ] in
  (match results.(0) with
  | Ok _ -> ()
  | Error msg -> failwith ("profile: " ^ msg));
  {
    pf_label = label;
    pf_metrics = Obs.Metrics.of_trace tracer;
    pf_pool = stats;
    pf_flops = !flops;
  }

let compute_seconds p =
  Array.fold_left
    (fun acc r -> acc +. r.Obs.Metrics.rr_compute)
    0.0 p.pf_metrics.Obs.Metrics.ranks

let attributed_seconds p =
  List.fold_left
    (fun acc k -> acc +. k.Obs.Metrics.kr_self)
    0.0 p.pf_metrics.Obs.Metrics.kernels

let attributed_flops p =
  List.fold_left
    (fun acc k -> acc +. k.Obs.Metrics.kr_flops)
    0.0 p.pf_metrics.Obs.Metrics.kernels

let coverage p =
  let c = compute_seconds p in
  if c > 0.0 then attributed_seconds p /. c
  else if p.pf_flops > 0.0 then attributed_flops p /. p.pf_flops
  else 1.0

(* a sync point's mean execution latency and its nonzero latency buckets,
   each as (upper bound, or None for the +Inf overflow; count) *)
let mean (s : Obs.Metrics.sync_row) =
  s.Obs.Metrics.sr_phase_time /. float_of_int (max 1 s.Obs.Metrics.sr_executions)

let latency_buckets (s : Obs.Metrics.sync_row) =
  let bounds = Obs.Registry.seconds_buckets in
  Array.to_list s.Obs.Metrics.sr_latency
  |> List.mapi (fun i c ->
         ((if i < Array.length bounds then Some bounds.(i) else None), c))
  |> List.filter (fun (_, c) -> c > 0)

let fmt_si v =
  if v = 0.0 then "0"
  else if Float.abs v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if Float.abs v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if Float.abs v >= 1e3 then Printf.sprintf "%.2fk" (v /. 1e3)
  else Printf.sprintf "%.3g" v

let fmt_seconds v =
  if v = 0.0 then "0"
  else if v >= 1.0 then Printf.sprintf "%.3fs" v
  else if v >= 1e-3 then Printf.sprintf "%.3fms" (v *. 1e3)
  else Printf.sprintf "%.3gus" (v *. 1e6)

type nest_group = {
  ng_nest : Obs.Metrics.kernel_row;
  ng_frags : Obs.Metrics.kernel_row list;
}

(* "L12 do j,i #2/3" -> "L12 do j,i" *)
let strip_frag name =
  match String.rindex_opt name '#' with
  | Some i when i >= 1 && name.[i - 1] = ' ' -> String.sub name 0 (i - 1)
  | _ -> name

(* Fold the flat kernel table into per-source-nest groups: fragments the
   loop-fission pass split out of one source nest (kr_nfrags > 0, same
   source line) collapse under a synthesized aggregate row so the
   hot-nest table ranks source nests, with the fragments as indented
   children.  The aggregate sums self time / flops / bytes; calls is the
   max over fragments (each fragment executes once per source-nest
   execution, so the max is the source nest's call count even if some
   fragment was skipped). *)
let nest_groups p =
  let split, whole =
    List.partition
      (fun (k : Obs.Metrics.kernel_row) -> k.Obs.Metrics.kr_nfrags > 0)
      p.pf_metrics.Obs.Metrics.kernels
  in
  let by_line = Hashtbl.create 8 in
  List.iter
    (fun (k : Obs.Metrics.kernel_row) ->
      let line = k.Obs.Metrics.kr_line in
      Hashtbl.replace by_line line
        (k :: Option.value ~default:[] (Hashtbl.find_opt by_line line)))
    split;
  let groups =
    Hashtbl.fold
      (fun _ frags acc ->
        let frags =
          List.sort
            (fun (a : Obs.Metrics.kernel_row) b ->
              compare a.Obs.Metrics.kr_frag b.Obs.Metrics.kr_frag)
            frags
        in
        let f0 = List.hd frags in
        let sum get = List.fold_left (fun a k -> a +. get k) 0.0 frags in
        let nest =
          {
            Obs.Metrics.kr_name = strip_frag f0.Obs.Metrics.kr_name;
            kr_line = f0.Obs.Metrics.kr_line;
            kr_fused =
              List.for_all (fun k -> k.Obs.Metrics.kr_fused) frags;
            kr_frag = 0;
            kr_nfrags = f0.Obs.Metrics.kr_nfrags;
            kr_calls =
              List.fold_left
                (fun a k -> max a k.Obs.Metrics.kr_calls)
                0 frags;
            kr_flops = sum (fun k -> k.Obs.Metrics.kr_flops);
            kr_bytes = sum (fun k -> k.Obs.Metrics.kr_bytes);
            kr_self = sum (fun k -> k.Obs.Metrics.kr_self);
          }
        in
        { ng_nest = nest; ng_frags = frags } :: acc)
      by_line []
  in
  let groups =
    groups
    @ List.map (fun k -> { ng_nest = k; ng_frags = [] }) whole
  in
  List.sort
    (fun a b ->
      match compare b.ng_nest.Obs.Metrics.kr_self a.ng_nest.Obs.Metrics.kr_self
      with
      | 0 -> (
          match
            compare b.ng_nest.Obs.Metrics.kr_flops
              a.ng_nest.Obs.Metrics.kr_flops
          with
          | 0 ->
              compare a.ng_nest.Obs.Metrics.kr_line
                b.ng_nest.Obs.Metrics.kr_line
          | c -> c)
      | c -> c)
    groups

let hot_nests ?(top = 10) p =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take top (nest_groups p)

let render ?(top = 10) p =
  let b = Buffer.create 4096 in
  let m = p.pf_metrics in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let compute = compute_seconds p in
  let nranks = Array.length m.Obs.Metrics.ranks in
  pr "# profile: %s\n\n" p.pf_label;
  pr "ranks %d, %s elapsed %s; compute %s, messages %d, bytes %d\n\n"
    nranks
    (if m.Obs.Metrics.wall then "wall-clock" else "simulated")
    (fmt_seconds m.Obs.Metrics.elapsed)
    (fmt_seconds compute) m.Obs.Metrics.messages m.Obs.Metrics.bytes;
  (* -- hot nests ---------------------------------------------------- *)
  let groups = nest_groups p in
  let shown = hot_nests ~top p in
  pr "## hot nests (top %d of %d by self time)\n\n" (List.length shown)
    (List.length groups);
  pr "| nest | line | fused | calls | self | %% compute | flop/s | B/s |\n";
  pr "|---|---|---|---|---|---|---|---|\n";
  let row name (k : Obs.Metrics.kernel_row) =
    (* a run that charged no virtual compute has no share to show *)
    let share =
      if compute > 0.0 then
        Printf.sprintf "%5.1f%%" (100.0 *. k.Obs.Metrics.kr_self /. compute)
      else "-"
    in
    let rate den v = if den > 0.0 then fmt_si (v /. den) else "-" in
    pr "| %s | %d | %s | %d | %s | %s | %s | %s |\n" name
      k.Obs.Metrics.kr_line
      (if k.Obs.Metrics.kr_fused then "yes" else "no")
      k.Obs.Metrics.kr_calls
      (fmt_seconds k.Obs.Metrics.kr_self)
      share
      (rate k.Obs.Metrics.kr_self k.Obs.Metrics.kr_flops)
      (rate k.Obs.Metrics.kr_self k.Obs.Metrics.kr_bytes)
  in
  List.iter
    (fun g ->
      row g.ng_nest.Obs.Metrics.kr_name g.ng_nest;
      (* fission fragments: indented children of the source nest *)
      List.iter
        (fun (k : Obs.Metrics.kernel_row) ->
          row
            (Printf.sprintf "  ↳ #%d/%d" k.Obs.Metrics.kr_frag
               k.Obs.Metrics.kr_nfrags)
            k)
        g.ng_frags)
    shown;
  pr "\nattributed: %.1f%% of compute time across %d named nests\n\n"
    (100.0 *. coverage p) (List.length groups);
  (* -- per-sync latency --------------------------------------------- *)
  if m.Obs.Metrics.syncs <> [] then begin
    pr "## sync-point latency\n\n";
    List.iter
      (fun (s : Obs.Metrics.sync_row) ->
        pr "sync %d %s — %d executions, mean %s, max %s\n" s.Obs.Metrics.sr_id
          s.Obs.Metrics.sr_label s.Obs.Metrics.sr_executions
          (fmt_seconds (mean s)) (fmt_seconds s.Obs.Metrics.sr_max);
        let buckets = latency_buckets s in
        let peak = List.fold_left (fun a (_, c) -> max a c) 1 buckets in
        List.iter
          (fun (le, c) ->
            let le =
              match le with Some v -> "<= " ^ fmt_seconds v | None -> "   +Inf"
            in
            pr "  %-12s %6d  %s\n" le c (String.make (max 1 (c * 24 / peak)) '#'))
          buckets;
        pr "\n")
      m.Obs.Metrics.syncs
  end;
  (* -- pool --------------------------------------------------------- *)
  pr "%s" (Report.sched_summary [ (p.pf_label, p.pf_pool) ]);
  Buffer.contents b

let kernel_json compute (k : Obs.Metrics.kernel_row) =
  [
    ("name", J.Str k.Obs.Metrics.kr_name);
    ("line", J.Int k.Obs.Metrics.kr_line);
    ("fused", J.Bool k.Obs.Metrics.kr_fused);
    ("calls", J.Int k.Obs.Metrics.kr_calls);
    ("flops", J.Float k.Obs.Metrics.kr_flops);
    ("bytes", J.Float k.Obs.Metrics.kr_bytes);
    ("self_seconds", J.Float k.Obs.Metrics.kr_self);
    ( "share",
      if compute > 0.0 then J.Float (k.Obs.Metrics.kr_self /. compute)
      else J.Null );
    ( "flops_per_second",
      if k.Obs.Metrics.kr_self > 0.0 then
        J.Float (k.Obs.Metrics.kr_flops /. k.Obs.Metrics.kr_self)
      else J.Null );
  ]

let nest_json compute g =
  J.Obj
    (kernel_json compute g.ng_nest
    @
    match g.ng_frags with
    | [] -> []
    | frags ->
        [
          ( "fragments",
            J.List
              (List.map
                 (fun (k : Obs.Metrics.kernel_row) ->
                   J.Obj
                     (("frag", J.Int k.Obs.Metrics.kr_frag)
                     :: ("nfrags", J.Int k.Obs.Metrics.kr_nfrags)
                     :: kernel_json compute k))
                 frags) );
        ])

let sync_json (s : Obs.Metrics.sync_row) =
  J.Obj
    [
      ("sync", J.Int s.Obs.Metrics.sr_id);
      ("label", J.Str s.Obs.Metrics.sr_label);
      ("executions", J.Int s.Obs.Metrics.sr_executions);
      ("mean", J.Float (mean s));
      ("max", J.Float s.Obs.Metrics.sr_max);
      ( "buckets",
        J.List
          (List.map
             (fun (le, c) ->
               J.Obj
                 [
                   ("le", match le with Some v -> J.Float v | None -> J.Null);
                   ("count", J.Int c);
                 ])
             (latency_buckets s)) );
    ]

let to_json ?(top = 10) p =
  let m = p.pf_metrics in
  let compute = compute_seconds p in
  J.Obj
    [
      ("schema", J.Str "autocfd-profile/1");
      ("label", J.Str p.pf_label);
      ("elapsed", J.Float m.Obs.Metrics.elapsed);
      ("compute_seconds", J.Float compute);
      ("attributed_seconds", J.Float (attributed_seconds p));
      ("coverage", J.Float (coverage p));
      ("nests", J.List (List.map (nest_json compute) (hot_nests ~top p)));
      ("sync_latency", J.List (List.map sync_json m.Obs.Metrics.syncs));
      ("sched", Report.sched_summary_json [ (p.pf_label, p.pf_pool) ]);
      ("metrics", Obs.Metrics.to_json m);
    ]

(* the trace's families, then the pool's: cache probes, job outcomes and
   times, queue waits and per-worker busy seconds and utilization *)
let to_prometheus p =
  let module R = Obs.Registry in
  let module Pool = Sched.Pool in
  let s = p.pf_pool in
  let fam name help samples = { R.name; help; samples } in
  let outcomes l =
    List.map (fun (k, c) -> ([ ("outcome", k) ], float_of_int c)) l
  in
  let workers keep f =
    List.init (Array.length s.Pool.ps_busy) Fun.id
    |> List.filter keep
    |> List.map (fun w -> ([ ("worker", string_of_int w) ], f w))
  in
  let hist f =
    let vs = List.map f s.Pool.ps_events in
    let counts = Array.make (Array.length R.seconds_buckets + 1) 0 in
    List.iter
      (fun v ->
        let i = R.bucket R.seconds_buckets v in
        counts.(i) <- counts.(i) + 1)
      vs;
    R.Histogram
      [ ([], { R.bounds = R.seconds_buckets; counts;
               sum = List.fold_left ( +. ) 0.0 vs }) ]
  in
  Obs.Metrics.to_prometheus p.pf_metrics
  ^ R.to_prometheus
      [
        fam "autocfd_pool_cache_probes_total"
          "sweep-pool cache probes by outcome (hit / miss / corrupt)"
          (R.Counter
             (outcomes
                [ ("corrupt", s.Pool.ps_corrupt); ("hit", s.Pool.ps_hits);
                  ("miss", s.Pool.ps_misses) ]));
        fam "autocfd_pool_utilization"
          "per-worker busy fraction of the batch elapsed"
          (R.Gauge (workers (fun _ -> true) (Pool.utilization s)));
        fam "autocfd_sched_jobs_total" "sweep jobs by outcome (run / hit / error)"
          (R.Counter
             (outcomes
                (List.filter
                   (fun (_, c) -> c > 0)
                   [ ("error", s.Pool.ps_errors); ("hit", s.Pool.ps_hits);
                     ("run", s.Pool.ps_misses - s.Pool.ps_errors) ])));
        fam "autocfd_sched_job_seconds"
          "wall-clock job handling time in the sweep pool"
          (hist (fun e -> e.Pool.pe_t1 -. e.Pool.pe_t0));
        fam "autocfd_sched_busy_seconds_total"
          "wall-clock busy seconds per pool worker"
          (R.Counter
             (workers (fun w -> s.Pool.ps_ran.(w) > 0) (fun w -> s.Pool.ps_busy.(w))));
        fam "autocfd_sched_queue_wait_seconds"
          "wall-clock delay between pool start and job pickup"
          (hist (fun e -> e.Pool.pe_t0));
      ]
