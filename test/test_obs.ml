(** Tests for the observability layer: the JSON codec, the tracer's exact
    time-accounting invariant, Chrome export, sync-point attribution and
    the zero-overhead-when-off guarantee. *)

module Obs = Autocfd_obs
module J = Obs.Json
open Autocfd_mpsim
module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))

let heat =
  {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program heat
      parameter (m = 20, n = 10, ntime = 4)
      real u(m, n), w(m, n)
      real errmax
      integer i, j, it
      do 10 i = 1, m
        do 10 j = 1, n
          u(i, j) = 0.01 * float(i) * float(i) + 0.02 * float(j)
 10   continue
      do 500 it = 1, ntime
        do 100 i = 2, m - 1
          do 100 j = 2, n - 1
            w(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
 100    continue
        errmax = 0.0
        do 200 i = 2, m - 1
          do 200 j = 2, n - 1
            errmax = max(errmax, abs(w(i, j) - u(i, j)))
            u(i, j) = w(i, j)
 200    continue
 500  continue
      write(*,*) errmax
      end
|}

let traced_heat =
  lazy
    (let t = D.load heat in
     let plan = D.plan ~spec:(parts_spec [| 2; 2 |]) t in
     let tracer = Autocfd_obs.Trace.create () in
     let result =
       D.run
         ~spec:
           Autocfd.Runspec.(
             default
             |> with_machine (Some Autocfd_perfmodel.Model.pentium_cluster)
             |> with_tracer (Some tracer))
         plan
     in
     (result, tracer))

(* a simulator-level workload exercising every event kind *)
let ring_body tracer =
  Sim.run ~net:Netmodel.ethernet_100 ?tracer ~nranks:3 (fun c ->
      let r = Sim.rank c in
      Sim.advance c (0.001 *. float_of_int (r + 1));
      let right = (r + 1) mod 3 and left = (r + 2) mod 3 in
      Sim.send c ~dest:right ~tag:0 (Array.make 100 (float_of_int r));
      ignore (Sim.recv c ~src:left ~tag:0);
      ignore (Sim.allreduce c `Max (float_of_int r));
      ignore (Sim.bcast c ~root:0 (if r = 0 then [| 1.0; 2.0 |] else [||]));
      Sim.barrier c)

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("a", J.Int 42);
        ("b", J.Float 0.1);
        ("c", J.Str "quote \" backslash \\ newline \n unicode \xe2\x86\x92");
        ("d", J.List [ J.Null; J.Bool true; J.Bool false ]);
        ("e", J.Obj []);
        ("tiny", J.Float 1.0000000000000002);
      ]
  in
  let parsed = J.of_string (J.to_string doc) in
  Alcotest.(check bool) "value round-trips" true (parsed = doc);
  Alcotest.(check string) "serialization is a fixpoint" (J.to_string doc)
    (J.to_string parsed);
  Alcotest.(check bool) "pretty parses to the same value" true
    (J.of_string (J.pretty doc) = doc)

let test_json_errors () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejects " ^ s) true
        (match J.of_string s with
        | exception J.Parse_error _ -> true
        | _ -> false))
    [ "{"; "[1,]"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

(* ------------------------------------------------------------------ *)
(* Tracer invariants on the raw simulator                              *)
(* ------------------------------------------------------------------ *)

let test_events_monotone_per_rank () =
  let tracer = Obs.Trace.create () in
  let _ = ring_body (Some tracer) in
  let last = Array.make (Obs.Trace.nranks tracer) 0.0 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      Alcotest.(check bool) "span is forward" true (e.ev_t1 >= e.ev_t0);
      match e.ev_kind with
      | Obs.Trace.Phase _ -> () (* phases enclose other events *)
      | _ ->
          Alcotest.(check bool) "no overlap within a rank" true
            (e.ev_t0 >= last.(e.ev_rank) -. 1e-12);
          last.(e.ev_rank) <- e.ev_t1)
    (Obs.Trace.events tracer)

let test_breakdown_sums_to_finish () =
  let tracer = Obs.Trace.create () in
  let stats = ring_body (Some tracer) in
  let m = Obs.Metrics.of_trace tracer in
  Array.iter
    (fun (r : Obs.Metrics.rank_row) ->
      Alcotest.(check (float 1e-9)) "compute+comm+blocked = finish"
        r.Obs.Metrics.rr_finish
        (r.Obs.Metrics.rr_compute +. r.Obs.Metrics.rr_comm
        +. r.Obs.Metrics.rr_blocked))
    m.Obs.Metrics.ranks;
  Alcotest.(check (float 1e-9)) "metrics elapsed = stats elapsed"
    stats.Sim.elapsed m.Obs.Metrics.elapsed;
  (* the simulator's [messages]/[bytes] count p2p sends only; the metrics
     totals add per-rank collective participations, with the split
     recoverable from the by-kind breakdown *)
  let kind k =
    match
      List.find_opt (fun r -> r.Obs.Metrics.kb_kind = k) m.Obs.Metrics.by_kind
    with
    | Some r -> r
    | None -> Alcotest.failf "kind row %S missing" k
  in
  Alcotest.(check int) "p2p sends counted" stats.Sim.messages
    (kind "send").Obs.Metrics.kb_events;
  Alcotest.(check int) "p2p bytes counted" stats.Sim.bytes
    (kind "send").Obs.Metrics.kb_bytes;
  (* each of the 3 ranks participates in every collective *)
  Alcotest.(check int) "collective participations"
    (stats.Sim.collectives * 3)
    (kind "collective").Obs.Metrics.kb_events;
  Alcotest.(check int) "totals = sends + participations"
    ((kind "send").Obs.Metrics.kb_events
    + (kind "collective").Obs.Metrics.kb_events)
    m.Obs.Metrics.messages;
  Alcotest.(check int) "recv row counts deliveries" stats.Sim.messages
    (kind "recv").Obs.Metrics.kb_events

let test_tracing_off_identical_stats () =
  let with_tracer = ring_body (Some (Obs.Trace.create ())) in
  let without = ring_body None in
  Alcotest.(check bool) "identical Sim.stats" true (with_tracer = without)

(* ------------------------------------------------------------------ *)
(* End-to-end: traced SPMD execution of a real plan                    *)
(* ------------------------------------------------------------------ *)

let test_spmd_trace_accounts_elapsed () =
  let result, tracer = Lazy.force traced_heat in
  let stats = result.Autocfd_interp.Spmd.stats in
  let m = Obs.Metrics.of_trace tracer in
  Array.iter
    (fun (r : Obs.Metrics.rank_row) ->
      Alcotest.(check (float 1e-9)) "compute+comm+blocked = finish"
        r.Obs.Metrics.rr_finish
        (r.Obs.Metrics.rr_compute +. r.Obs.Metrics.rr_comm
        +. r.Obs.Metrics.rr_blocked))
    m.Obs.Metrics.ranks;
  let max_finish =
    Array.fold_left
      (fun acc (r : Obs.Metrics.rank_row) ->
        Float.max acc r.Obs.Metrics.rr_finish)
      0.0 m.Obs.Metrics.ranks
  in
  Alcotest.(check (float 1e-9)) "ranks account for the elapsed time"
    stats.Autocfd_mpsim.Sim.elapsed max_finish

let test_spmd_sync_attribution () =
  let _, tracer = Lazy.force traced_heat in
  let m = Obs.Metrics.of_trace tracer in
  let syncs = m.Obs.Metrics.syncs in
  Alcotest.(check bool) "sync table nonempty" true (syncs <> []);
  let has p = List.exists p syncs in
  let mentions s sub =
    let nh = String.length s and nn = String.length sub in
    let rec go i = i + nn <= nh && (String.sub s i nn = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "a halo exchange inside do it" true
    (has (fun s ->
         mentions s.Obs.Metrics.sr_label "halo"
         && s.Obs.Metrics.sr_loop = Some "it"));
  Alcotest.(check bool) "the max reduction appears" true
    (has (fun s -> mentions s.Obs.Metrics.sr_label "allreduce max"));
  List.iter
    (fun (s : Obs.Metrics.sync_row) ->
      Alcotest.(check bool) "executions positive" true
        (s.Obs.Metrics.sr_executions > 0))
    syncs;
  (* every simulated message is attributed to some sync point: the SPMD
     executor only communicates inside combined synchronization points *)
  Alcotest.(check int) "all messages attributed" m.Obs.Metrics.messages
    (List.fold_left (fun a s -> a + s.Obs.Metrics.sr_messages) 0 syncs)

let test_chrome_export_roundtrip () =
  let _, tracer = Lazy.force traced_heat in
  let text = Obs.Chrome.to_string tracer in
  let doc = J.of_string text in
  let evs =
    match J.member "traceEvents" doc with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  (* every trace event plus the metadata of each populated lane: the
     cluster lane (one process_name + a thread_name per rank) always, the
     kernel lane likewise when the fused engine emitted per-nest
     summaries, the scheduler lane when the trace holds sweep events *)
  let max_rank p =
    List.fold_left
      (fun acc (e : Obs.Trace.event) ->
        if p e.Obs.Trace.ev_kind then max acc e.Obs.Trace.ev_rank else acc)
      (-1)
      (Obs.Trace.events tracer)
  in
  let lane n = if n < 0 then 0 else n + 2 in
  let kernel_lane =
    lane (max_rank (function Obs.Trace.Kernel _ -> true | _ -> false))
  in
  let sched_lane =
    lane (max_rank (function Obs.Trace.Sched _ -> true | _ -> false))
  in
  Alcotest.(check bool) "fused run has a kernel lane" true (kernel_lane > 0);
  Alcotest.(check int) "event count"
    (Obs.Trace.length tracer
    + (Obs.Trace.nranks tracer + 1)
    + kernel_lane + sched_lane)
    (List.length evs);
  List.iter
    (fun e ->
      match J.member "ph" e with
      | Some (J.Str "M") -> ()
      | Some (J.Str "X") ->
          let num k =
            match J.member k e with
            | Some v -> J.to_float_exn v
            | None -> Alcotest.fail (k ^ " missing")
          in
          Alcotest.(check bool) "ts >= 0" true (num "ts" >= 0.0);
          Alcotest.(check bool) "dur >= 0" true (num "dur" >= 0.0)
      | _ -> Alcotest.fail "unexpected event phase")
    evs;
  Alcotest.(check string) "serialization fixpoint" (J.to_string doc)
    (J.to_string (J.of_string (J.to_string doc)))

let test_chrome_empty_trace () =
  let tracer = Obs.Trace.create () in
  let doc = J.of_string (Obs.Chrome.to_string tracer) in
  match J.member "traceEvents" doc with
  | Some (J.List l) ->
      Alcotest.(check int) "no events, no metadata" 0 (List.length l)
  | _ -> Alcotest.fail "traceEvents missing"

let test_chrome_name_escaping () =
  let tracer = Obs.Trace.create () in
  Obs.Trace.prepare tracer ~nranks:1;
  let label = "quote \" backslash \\ newline \n tab \t" in
  Obs.Trace.phase tracer ~rank:0 ~t0:0.0 ~t1:1.0 ~sync:0 ~label ();
  let doc = J.of_string (Obs.Chrome.to_string tracer) in
  let evs =
    match J.member "traceEvents" doc with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check bool) "hostile name survives the round trip" true
    (List.exists (fun e -> J.member "name" e = Some (J.Str label)) evs)

(* ------------------------------------------------------------------ *)
(* Kernel self-time attribution (the profiler's data source)           *)
(* ------------------------------------------------------------------ *)

let test_kernel_attribution () =
  let result, tracer = Lazy.force traced_heat in
  let m = Obs.Metrics.of_trace tracer in
  let kernels = m.Obs.Metrics.kernels in
  Alcotest.(check bool) "kernel table nonempty" true (kernels <> []);
  (* sorted by descending self time *)
  let rec sorted = function
    | a :: (b :: _ as tl) ->
        a.Obs.Metrics.kr_self >= b.Obs.Metrics.kr_self && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "descending self time" true (sorted kernels);
  (* self flops are exact and disjoint: they sum to the executed total *)
  let total_flops =
    Array.fold_left ( +. ) 0.0 result.Autocfd_interp.Spmd.flops_per_rank
  in
  let attributed_flops =
    List.fold_left (fun a k -> a +. k.Obs.Metrics.kr_flops) 0.0 kernels
  in
  Alcotest.(check (float 1e-6)) "all flops attributed to named nests"
    total_flops attributed_flops;
  (* and the >= 95% compute-time gate of [profile --check] holds *)
  let compute =
    Array.fold_left
      (fun a (r : Obs.Metrics.rank_row) -> a +. r.Obs.Metrics.rr_compute)
      0.0 m.Obs.Metrics.ranks
  in
  let self =
    List.fold_left (fun a k -> a +. k.Obs.Metrics.kr_self) 0.0 kernels
  in
  Alcotest.(check bool) "at least 95% of compute time attributed" true
    (compute > 0.0 && self /. compute >= 0.95)

(* ------------------------------------------------------------------ *)
(* Sched events: the pool's stats + the scheduler Chrome lane          *)
(* ------------------------------------------------------------------ *)

let test_sched_events_surface () =
  let module Pool = Autocfd_sched.Pool in
  let tracer = Obs.Trace.create () in
  let jobs =
    List.init 3 (fun i ->
        Autocfd_sched.Job.make
          ~label:(Printf.sprintf "job%d" i)
          ~key:(J.Obj [ ("i", J.Int i) ])
          (fun () -> J.Int (i * i)))
  in
  let _results, stats = Pool.run ~jobs:2 ~tracer jobs in
  (* the pool's stats are the one account of the batch *)
  Alcotest.(check int) "jobs counted" 3 stats.Pool.ps_jobs;
  Alcotest.(check int) "all ran (no cache)" 3 stats.Pool.ps_misses;
  Alcotest.(check int) "no hits" 0 stats.Pool.ps_hits;
  Alcotest.(check int) "no errors" 0 stats.Pool.ps_errors;
  Alcotest.(check int) "one event per job" 3 (List.length stats.Pool.ps_events);
  Alcotest.(check int) "worker jobs sum to the batch" 3
    (Array.fold_left ( + ) 0 stats.Pool.ps_ran);
  (* sched events must not pollute the virtual-clock rank accounting:
     the prepared rank rows exist but stay all-zero *)
  let m = Obs.Metrics.of_trace tracer in
  Array.iter
    (fun (r : Obs.Metrics.rank_row) ->
      Alcotest.(check (float 0.0)) "virtual clock untouched" 0.0
        r.Obs.Metrics.rr_finish)
    m.Obs.Metrics.ranks;
  (* the Chrome export renders one span per job on the scheduler pid *)
  let doc = J.of_string (Obs.Chrome.to_string tracer) in
  let evs =
    match J.member "traceEvents" doc with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "traceEvents missing"
  in
  Alcotest.(check int) "scheduler lane holds every job" 3
    (List.length
       (List.filter
          (fun e ->
            J.member "pid" e = Some (J.Int 1)
            && J.member "ph" e = Some (J.Str "X"))
          evs))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition of the metrics rows                           *)
(* ------------------------------------------------------------------ *)

let test_registry_histogram_boundaries () =
  let module R = Obs.Registry in
  (* "le" semantics: a value exactly on a bound lands in that bucket;
     above every bound it lands in the overflow slot *)
  Alcotest.(check (list int)) "bucket slots" [ 0; 0; 1; 1; 2; 3 ]
    (List.map (R.bucket [| 1.0; 2.0; 4.0 |]) [ 0.5; 1.0; 1.5; 2.0; 4.0; 4.1 ]);
  (* log_buckets: powers of two from lo up to the first bound >= hi *)
  let lb = R.log_buckets ~lo:1.0 ~hi:10.0 in
  Alcotest.(check bool) "log buckets" true (lb = [| 1.0; 2.0; 4.0; 8.0; 16.0 |]);
  (* the ladders the metrics rows are counted on *)
  let nsec = Array.length R.seconds_buckets in
  Alcotest.(check int) "1 us is the first seconds bucket" 0
    (R.bucket R.seconds_buckets 1e-6);
  Alcotest.(check int) "a minute overflows" nsec
    (R.bucket R.seconds_buckets 60.0);
  Alcotest.(check int) "65 B lands in the 128 B bucket" 1
    (R.bucket R.bytes_buckets 65.0)

(* the values of the [name] samples of parsed exposition text whose
   labels are [labels] (with [~extra], include them), in text order *)
let samples_of samples ?(extra = false) name labels =
  List.filter_map
    (fun (s : Obs.Registry.sample) ->
      let ls = s.Obs.Registry.s_labels in
      if
        s.Obs.Registry.s_name = name
        && if extra then List.for_all (fun l -> List.mem l ls) labels
           else ls = labels
      then Some s.Obs.Registry.s_value
      else None)
    samples

let cumulative counts =
  snd
    (List.fold_left_map
       (fun acc c -> (acc + c, float_of_int (acc + c)))
       0 (Array.to_list counts))

let test_prometheus_roundtrip () =
  let module R = Obs.Registry in
  let tracer = Obs.Trace.create () in
  let _ = ring_body (Some tracer) in
  (* a sync label the text format must escape *)
  let label = "hit \"quoted\" back\\slash\nnewline" in
  Obs.Trace.phase tracer ~rank:0 ~t0:0.0 ~t1:0.5 ~sync:7 ~label ();
  let m = Obs.Metrics.of_trace tracer in
  let samples = R.parse_prometheus (Obs.Metrics.to_prometheus m) in
  let one name labels =
    match samples_of samples name labels with
    | [ v ] -> v
    | l -> Alcotest.failf "%s: %d samples" name (List.length l)
  in
  Alcotest.(check (float 0.0)) "counter" 3.0
    (one "autocfd_messages_total" [ ("kind", "send") ]);
  Alcotest.(check (float 0.0)) "escaped label value" 1.0
    (one "autocfd_sync_executions_total" [ ("id", "7"); ("sync", label) ]);
  (* histogram: cumulative buckets ending at +Inf, sum and count *)
  let send =
    List.find (fun k -> k.Obs.Metrics.kb_kind = "send") m.Obs.Metrics.by_kind
  in
  let buckets =
    samples_of samples ~extra:true "autocfd_message_bytes_bucket"
      [ ("kind", "send") ]
  in
  Alcotest.(check (list (float 0.0))) "cumulative buckets"
    (cumulative send.Obs.Metrics.kb_sizes) buckets;
  Alcotest.(check (float 0.0)) "le=512 is empty" 0.0
    (one "autocfd_message_bytes_bucket" [ ("kind", "send"); ("le", "512") ]);
  Alcotest.(check (float 0.0)) "le=+Inf sees all" 3.0
    (one "autocfd_message_bytes_bucket" [ ("kind", "send"); ("le", "+Inf") ]);
  Alcotest.(check (float 0.0)) "count" 3.0
    (one "autocfd_message_bytes_count" [ ("kind", "send") ]);
  Alcotest.(check (float 0.0)) "sum"
    (float_of_int send.Obs.Metrics.kb_bytes)
    (one "autocfd_message_bytes_sum" [ ("kind", "send") ])

let heat2d_plan ?(parts = [| 2; 2 |]) () =
  let path =
    List.find Sys.file_exists [ "../examples/heat2d.f"; "examples/heat2d.f" ]
  in
  let src = In_channel.with_open_bin path In_channel.input_all in
  let spec =
    Autocfd.Runspec.(
      parts_spec parts
      |> with_machine (Some Autocfd_perfmodel.Model.pentium_cluster))
  in
  (spec, D.plan ~spec (D.load src))

(* examples/heat2d.f combines its syncs into three points, two of which
   exchange the same halo: one series each, keyed by id *)
let test_prometheus_series_per_sync_id () =
  let spec, plan = heat2d_plan () in
  let p = Autocfd.Profile.run ~spec plan in
  let samples =
    Obs.Registry.parse_prometheus
      (Obs.Metrics.to_prometheus p.Autocfd.Profile.pf_metrics)
  in
  let syncs = p.Autocfd.Profile.pf_metrics.Obs.Metrics.syncs in
  Alcotest.(check (list (float 0.0))) "one execution series per sync id"
    [ 4.0; 160.0; 160.0 ]
    (samples_of samples ~extra:true "autocfd_sync_executions_total" []);
  List.iter
    (fun (s : Obs.Metrics.sync_row) ->
      let labels =
        [ ("id", string_of_int s.Obs.Metrics.sr_id);
          ("sync", s.Obs.Metrics.sr_label) ]
      in
      let series name = samples_of samples name labels in
      Alcotest.(check (list (float 0.0))) "executions"
        [ float_of_int s.Obs.Metrics.sr_executions ]
        (series "autocfd_sync_executions_total");
      Alcotest.(check (list (float 0.0))) "latency count"
        [ float_of_int s.Obs.Metrics.sr_executions ]
        (series "autocfd_sync_latency_seconds_count");
      Alcotest.(check (list (float 0.0))) "latency sum"
        [ s.Obs.Metrics.sr_phase_time ]
        (series "autocfd_sync_latency_seconds_sum");
      Alcotest.(check (list (float 0.0))) "latency buckets"
        (cumulative s.Obs.Metrics.sr_latency)
        (samples_of samples ~extra:true "autocfd_sync_latency_seconds_bucket"
           labels))
    syncs

(* a Domains run is measured on the wall clock: the profile says so, each
   rank row's compute is the wall time the engine measured outside its
   communication hooks, the named nests account for it, and start-up,
   compute, hook copies (comm) and waits add up to the rank's finish *)
let test_domains_profile_wall_clock () =
  let spec, plan = heat2d_plan () in
  let spec = Autocfd.Runspec.with_engine Autocfd_interp.Spmd.Domains spec in
  let p = Autocfd.Profile.run ~spec plan in
  let text = Autocfd.Profile.render p in
  let lines = String.split_on_char '\n' text in
  Alcotest.(check bool) "elapsed labelled wall-clock" true
    (List.exists
       (fun l -> String.starts_with ~prefix:"ranks 4, wall-clock elapsed " l)
       lines);
  (* the header counts the run's halo copies, as run and trace do *)
  Alcotest.(check bool) "header counts the run's messages" true
    (List.exists
       (fun l -> String.ends_with ~suffix:", messages 328, bytes 60352" l)
       lines);
  let nests =
    List.filter (fun l -> String.starts_with ~prefix:"| L" l) lines
  in
  Alcotest.(check int) "three nests" 3 (List.length nests);
  Alcotest.(check bool) "nests attribute >= 95% of compute" true
    (Autocfd.Profile.coverage p >= 0.95);
  (* every seconds family names the wall clock *)
  let help =
    String.split_on_char '\n'
      (Obs.Metrics.to_prometheus p.Autocfd.Profile.pf_metrics)
    |> List.filter (String.starts_with ~prefix:"# HELP ")
  in
  Alcotest.(check (list string)) "no HELP line says virtual" []
    (List.filter
       (fun l -> List.mem "virtual" (String.split_on_char ' ' l))
       help);
  Alcotest.(check bool) "comm HELP says wall-clock" true
    (List.mem
       "# HELP autocfd_comm_seconds_total wall-clock communication seconds, \
        by kind"
       help);
  (* compute spent outside every nest stays unattributed *)
  let tail = "      write(*,*) errmax\n      end\n" in
  let head = String.sub heat 0 (String.length heat - String.length tail) in
  let busy =
    head ^ " 20   it = it + 1\n      errmax = 0.5 * (errmax + 1.0)\n"
    ^ "      if (it .lt. 40000) goto 20\n" ^ tail
  in
  let bp = Autocfd.Profile.run ~spec (D.plan ~spec (D.load busy)) in
  Alcotest.(check bool) "scalar work outside nests unattributed" true
    (Autocfd.Profile.coverage bp < 0.5);
  let ds = Option.get p.Autocfd.Profile.pf_result.Autocfd_interp.Spmd.domains in
  Array.iteri
    (fun i (row : Obs.Metrics.rank_row) ->
      let measured = ds.Autocfd_interp.Spmd.ds_compute.(i) in
      Alcotest.(check bool) (Printf.sprintf "rank %d compute > 0" i) true
        (row.Obs.Metrics.rr_compute > 0.0);
      Alcotest.(check (float (1e-9 *. measured)))
        (Printf.sprintf "rank %d compute = ds_compute" i)
        measured row.Obs.Metrics.rr_compute;
      let finish = row.Obs.Metrics.rr_finish in
      let sum =
        row.Obs.Metrics.rr_compute +. row.Obs.Metrics.rr_comm
        +. row.Obs.Metrics.rr_blocked
      in
      Alcotest.(check (float (0.02 *. finish)))
        (Printf.sprintf "rank %d buckets add up to finish" i)
        finish sum;
      Alcotest.(check bool) (Printf.sprintf "rank %d comm > 0" i) true
        (row.Obs.Metrics.rr_comm > 0.0))
    p.Autocfd.Profile.pf_metrics.Obs.Metrics.ranks

(* a Domains run's comm samples are the hooks' copy seconds: per rank,
   the samples sum to the comm (not the blocked) seconds the trace gives
   its exchange and allgather hooks *)
let test_domains_comm_samples_exclude_waits () =
  let spec, plan = heat2d_plan () in
  let tracer = Obs.Trace.create () in
  let spec =
    Autocfd.Runspec.(
      spec
      |> with_engine Autocfd_interp.Spmd.Domains
      |> with_tracer (Some tracer))
  in
  let r = D.run ~spec plan in
  let ds = Option.get r.Autocfd_interp.Spmd.domains in
  let evs = Obs.Trace.events tracer in
  let copy_hooks = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      match e.Obs.Trace.ev_kind with
      | Obs.Trace.Phase { label; _ }
        when String.starts_with ~prefix:"halo " label
             || String.starts_with ~prefix:"allgather " label ->
          Hashtbl.replace copy_hooks e.Obs.Trace.ev_sync ()
      | _ -> ())
    evs;
  let on_copy_hook rank select =
    List.fold_left
      (fun acc (e : Obs.Trace.event) ->
        if
          e.Obs.Trace.ev_rank = rank
          && Hashtbl.mem copy_hooks e.Obs.Trace.ev_sync
          && select e.Obs.Trace.ev_kind
        then acc +. (e.Obs.Trace.ev_t1 -. e.Obs.Trace.ev_t0)
        else acc)
      0.0 evs
  in
  (* every rank visits the same hooks, so the samples split evenly *)
  let nranks = Array.length ds.Autocfd_interp.Spmd.ds_compute in
  let samples = Array.of_list ds.Autocfd_interp.Spmd.ds_comm_samples in
  let per_rank = Array.length samples / nranks in
  Alcotest.(check bool) "copy hooks sampled" true (per_rank > 0);
  Alcotest.(check int) "samples split evenly" 0
    (Array.length samples mod nranks);
  let blocked = ref 0.0 in
  for rank = 0 to nranks - 1 do
    let sampled =
      Array.fold_left
        (fun acc (_, secs) -> acc +. secs)
        0.0
        (Array.sub samples (rank * per_rank) per_rank)
    in
    let comm =
      on_copy_hook rank (function Obs.Trace.Recv _ -> true | _ -> false)
    in
    blocked :=
      !blocked
      +. on_copy_hook rank (function Obs.Trace.Blocked _ -> true | _ -> false);
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "rank %d samples = comm seconds" rank)
      comm sampled
  done;
  Alcotest.(check bool) "the copy hooks wait" true (!blocked > 0.0)

(* every barrier wait of a Domains run is one Blocked event, a
   zero-length one too (the wall clock steps in whole microseconds, so a
   short poll reads 0 s).  A barrier's last arrival records no wait and
   every other arrival one, so the ranks' recorded barrier waits number
   n - 1 per barrier; the publish barrier's fall inside each rank's
   start-up event, which the wait histograms count as well.  2x1 polls
   on any host of 2 cores or more; 2x2 sleeps at once on a 2-core one *)
let test_domains_barrier_waits_counted () =
  List.iter
    (fun parts ->
      let spec, plan = heat2d_plan ~parts () in
      let tracer = Obs.Trace.create () in
      let spec =
        Autocfd.Runspec.(
          spec
          |> with_engine Autocfd_interp.Spmd.Domains
          |> with_tracer (Some tracer))
      in
      let p = Autocfd.Profile.run ~spec plan in
      let ds =
        Option.get p.Autocfd.Profile.pf_result.Autocfd_interp.Spmd.domains
      in
      let nranks = Array.length ds.Autocfd_interp.Spmd.ds_compute in
      let what = Printf.sprintf "%d ranks" nranks in
      let in_hooks = Array.make nranks 0 in
      List.iter
        (fun (e : Obs.Trace.event) ->
          match e.Obs.Trace.ev_kind with
          | Obs.Trace.Blocked { tag; _ }
            when e.Obs.Trace.ev_wall && tag < 0 && e.Obs.Trace.ev_t0 > 0.0 ->
              let r = e.Obs.Trace.ev_rank in
              in_hooks.(r) <- in_hooks.(r) + 1
          | _ -> ())
        (Obs.Trace.events tracer);
      Alcotest.(check int)
        (what ^ ": n - 1 barrier waits per barrier")
        ((nranks - 1) * (ds.Autocfd_interp.Spmd.ds_barrier_calls - 1))
        (Array.fold_left ( + ) 0 in_hooks);
      let barrier_rows =
        List.filter
          (fun (w : Obs.Metrics.wait_row) -> w.Obs.Metrics.wr_kind = "barrier")
          p.Autocfd.Profile.pf_metrics.Obs.Metrics.waits
      in
      Alcotest.(check int) (what ^ ": a barrier row per rank") nranks
        (List.length barrier_rows);
      List.iter
        (fun (w : Obs.Metrics.wait_row) ->
          let r = w.Obs.Metrics.wr_rank in
          Alcotest.(check int)
            (Printf.sprintf "%s: rank %d histogram counts its waits" what r)
            (in_hooks.(r) + 1)
            (Array.fold_left ( + ) 0 w.Obs.Metrics.wr_hist))
        barrier_rows)
    [ [| 2; 1 |]; [| 2; 2 |] ]

let suite =
  [
    ("json roundtrip", `Quick, test_json_roundtrip);
    ("json errors", `Quick, test_json_errors);
    ("events monotone per rank", `Quick, test_events_monotone_per_rank);
    ("breakdown sums to finish", `Quick, test_breakdown_sums_to_finish);
    ("tracing off: identical stats", `Quick, test_tracing_off_identical_stats);
    ("spmd trace accounts elapsed", `Quick, test_spmd_trace_accounts_elapsed);
    ("spmd sync attribution", `Quick, test_spmd_sync_attribution);
    ("chrome export roundtrip", `Quick, test_chrome_export_roundtrip);
    ("chrome empty trace", `Quick, test_chrome_empty_trace);
    ("chrome name escaping", `Quick, test_chrome_name_escaping);
    ("kernel attribution", `Quick, test_kernel_attribution);
    ("sched events surface", `Quick, test_sched_events_surface);
    ( "registry histogram boundaries",
      `Quick,
      test_registry_histogram_boundaries );
    ("prometheus roundtrip", `Quick, test_prometheus_roundtrip);
    ( "prometheus series per sync id",
      `Quick,
      test_prometheus_series_per_sync_id );
    ("domains profile wall clock", `Quick, test_domains_profile_wall_clock);
    ( "domains comm samples exclude waits",
      `Quick,
      test_domains_comm_samples_exclude_waits );
    ( "domains barrier waits all traced",
      `Quick,
      test_domains_barrier_waits_counted );
  ]
