(** The sweep scheduler and result cache: deterministic merge order
    (jobs 1 vs 4 bit-identical), content-addressed cache hits returning
    the stored bytes, invalidation on source-digest and code-version
    changes, error isolation (a raising job reports its error without
    wedging the pool), and the stable Runspec JSON codec. *)

module Sched = Autocfd_sched
module J = Autocfd_obs.Json
module E = Autocfd.Experiments
module R = Autocfd.Runspec
module I = Autocfd_interp
module M = Autocfd_mpsim

let tmp_cache_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "autocfd_sched_test_%d_%d" (Unix.getpid ()) !n)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    dir

let with_cache f =
  let dir = tmp_cache_dir () in
  let cache = Sched.Cache.create ~dir () in
  Fun.protect
    ~finally:(fun () ->
      Sched.Cache.clear cache;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () -> f cache)

let job ?version ~label ~spec run =
  Sched.Job.make ?version ~label ~key:(J.Obj [ ("spec", J.Str spec) ]) run

(* ------------------------------------------------------------------ *)
(* Determinism: 1 worker vs 4 workers                                  *)
(* ------------------------------------------------------------------ *)

let test_pool_deterministic () =
  let mk () =
    List.init 12 (fun i ->
        job
          ~label:(Printf.sprintf "j%d" i)
          ~spec:(Printf.sprintf "square-%d" i)
          (fun () -> J.Obj [ ("v", J.Int (i * i)) ]))
  in
  let render (results, _) =
    String.concat ";"
      (Array.to_list
         (Array.map
            (function
              | Ok v -> J.canonical v
              | Error msg -> "error:" ^ msg)
            results))
  in
  let serial = render (Sched.Pool.run ~jobs:1 (mk ())) in
  let parallel = render (Sched.Pool.run ~jobs:4 (mk ())) in
  Alcotest.(check string) "jobs 1 = jobs 4" serial parallel

let test_table_rows_deterministic () =
  (* a real sweep: table1 through 1 worker and 4 workers must render
     byte-identically *)
  let render sw = E.render_table1 (E.table1 ~sweep:sw ()) in
  let serial = render (E.sweep ~jobs:1 ()) in
  let parallel = render (E.sweep ~jobs:4 ()) in
  Alcotest.(check string) "table1 rows identical" serial parallel

(* a table job's cache key is its spec with the program text replaced
   by its digest: no source text in the key, a different cache file for
   one changed source byte, and the full source still in the spec a
   fabric worker resolves *)
let test_table_job_key () =
  let source = Autocfd_apps.Sprayer.source ~ni:30 ~nj:16 ~ntime:4 () in
  let spec src =
    J.Obj
      [ ("kind", J.Str "predict-par"); ("source", J.Str src);
        ("partition", J.Str "2x1") ]
  in
  let a = E.job ~table:"table3" ~label:"2 x 1" (spec source) in
  let key = J.canonical a.Sched.Job.jb_key in
  let contains needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length key && (String.sub key i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "no program text in the key" false
    (contains "c$acfd grid(ni, nj)");
  Alcotest.(check bool) "the source digest is" true
    (contains (Sched.Job.digest source));
  let changed = Bytes.of_string source in
  Bytes.set changed (Bytes.length changed - 2) 'D';
  let b = E.job ~table:"table3" ~label:"2 x 1" (spec (Bytes.to_string changed)) in
  Alcotest.(check bool) "one changed source byte, another cache file" true
    (Sched.Job.cache_name a <> Sched.Job.cache_name b);
  Alcotest.(check string) "same spec, same cache file" (Sched.Job.cache_name a)
    (Sched.Job.cache_name (E.job ~table:"table3" ~label:"x" (spec source)));
  Alcotest.(check (option string)) "the spec carries the full source"
    (Some source)
    (Option.map (E.js "source") a.Sched.Job.jb_spec)

(* ------------------------------------------------------------------ *)
(* Cache: hits are bit-identical, misses on any key ingredient change  *)
(* ------------------------------------------------------------------ *)

let test_cache_hit_identical () =
  with_cache (fun cache ->
      let calls = Atomic.make 0 in
      let mk () =
        [
          job ~label:"row" ~spec:"pi" (fun () ->
              Atomic.incr calls;
              J.Obj [ ("pi", J.Float 3.141592653589793); ("n", J.Int 7) ]);
        ]
      in
      let run () =
        let results, stats = Sched.Pool.run ~jobs:1 ~cache (mk ()) in
        match results.(0) with
        | Ok v -> (J.canonical v, stats)
        | Error msg -> Alcotest.fail msg
      in
      let cold, cold_stats = run () in
      let warm, warm_stats = run () in
      Alcotest.(check int) "thunk ran once" 1 (Atomic.get calls);
      Alcotest.(check string) "warm result bit-identical" cold warm;
      Alcotest.(check int) "cold pass missed" 1
        cold_stats.Sched.Pool.ps_misses;
      Alcotest.(check int) "warm pass hit" 1 warm_stats.Sched.Pool.ps_hits;
      Alcotest.(check int) "warm pass no misses" 0
        warm_stats.Sched.Pool.ps_misses)

let test_cache_invalidation () =
  with_cache (fun cache ->
      let calls = Atomic.make 0 in
      let mk ?version spec =
        [
          job ?version ~label:"row" ~spec (fun () ->
              Atomic.incr calls;
              J.Obj [ ("calls", J.Int (Atomic.get calls)) ]);
        ]
      in
      let run jobs = ignore (Sched.Pool.run ~jobs:1 ~cache jobs) in
      run (mk "src-digest-a");
      Alcotest.(check int) "cold run executes" 1 (Atomic.get calls);
      run (mk "src-digest-a");
      Alcotest.(check int) "same key hits" 1 (Atomic.get calls);
      (* a source change (different digest in the spec) misses *)
      run (mk "src-digest-b");
      Alcotest.(check int) "source change invalidates" 2 (Atomic.get calls);
      (* a code-version bump misses even with an identical spec *)
      run (mk ~version:"autocfd-sched/next" "src-digest-a");
      Alcotest.(check int) "code-version change invalidates" 3
        (Atomic.get calls))

let test_cache_lookup_checks_key () =
  with_cache (fun cache ->
      (* a colliding file whose stored key differs from the probe's must
         be treated as a miss, not served *)
      let a = job ~label:"a" ~spec:"original" (fun () -> J.Int 1) in
      Sched.Cache.store cache a (J.Int 1);
      let forged =
        {
          a with
          Sched.Job.jb_key = J.Obj [ ("spec", J.Str "something-else") ];
        }
      in
      Alcotest.(check bool) "stored key found" true
        (Sched.Cache.lookup cache a <> None);
      Alcotest.(check bool) "different key misses" true
        (Sched.Cache.lookup cache forged = None);
      (* corrupt the entry on disk: malformed JSON must read as a miss *)
      let path =
        Filename.concat (Sched.Cache.dir cache)
          (Sched.Job.cache_name a ^ ".json")
      in
      let oc = open_out path in
      output_string oc "{ truncated";
      close_out oc;
      Alcotest.(check bool) "corrupt entry misses" true
        (Sched.Cache.lookup cache a = None))

let test_corruption_miss_counter () =
  with_cache (fun cache ->
      let a = job ~label:"a" ~spec:"alpha" (fun () -> J.Int 1) in
      Alcotest.(check int) "fresh cache: zero" 0
        (Sched.Cache.corruption_misses cache);
      (* a cold miss (no entry file) is not a corruption *)
      ignore (Sched.Cache.lookup cache a);
      Alcotest.(check int) "cold miss not counted" 0
        (Sched.Cache.corruption_misses cache);
      Sched.Cache.store cache a (J.Int 1);
      (* a stored-key mismatch (hash collision / forged probe) counts *)
      let forged =
        { a with Sched.Job.jb_key = J.Obj [ ("spec", J.Str "beta") ] }
      in
      let path =
        Filename.concat (Sched.Cache.dir cache)
          (Sched.Job.cache_name forged ^ ".json")
      in
      let write text =
        let oc = open_out path in
        output_string oc text;
        close_out oc
      in
      write
        (J.to_string
           (J.Obj [ ("key", a.Sched.Job.jb_key); ("result", J.Int 1) ]));
      Alcotest.(check bool) "key mismatch misses" true
        (Sched.Cache.lookup cache forged = None);
      Alcotest.(check int) "key mismatch counted" 1
        (Sched.Cache.corruption_misses cache);
      (* malformed JSON counts too *)
      write "{ truncated";
      ignore (Sched.Cache.lookup cache forged);
      Alcotest.(check int) "malformed entry counted" 2
        (Sched.Cache.corruption_misses cache);
      Sys.remove path;
      (* and the pool surfaces the per-batch delta in its stats *)
      let _, stats = Sched.Pool.run ~jobs:1 ~cache [ a ] in
      Alcotest.(check int) "clean batch: ps_corrupt = 0" 0
        stats.Sched.Pool.ps_corrupt;
      let corrupt_a =
        Filename.concat (Sched.Cache.dir cache)
          (Sched.Job.cache_name a ^ ".json")
      in
      let oc = open_out corrupt_a in
      output_string oc "not json";
      close_out oc;
      let _, stats = Sched.Pool.run ~jobs:1 ~cache [ a ] in
      Alcotest.(check int) "corrupt probe surfaces in ps_corrupt" 1
        stats.Sched.Pool.ps_corrupt)

(* ------------------------------------------------------------------ *)
(* Error isolation                                                     *)
(* ------------------------------------------------------------------ *)

let test_raising_job_does_not_wedge () =
  let jobs =
    List.init 8 (fun i ->
        job
          ~label:(Printf.sprintf "j%d" i)
          ~spec:(Printf.sprintf "err-%d" i)
          (fun () ->
            if i = 3 then failwith "boom three";
            J.Int i))
  in
  let results, stats = Sched.Pool.run ~jobs:4 jobs in
  Array.iteri
    (fun i r ->
      match r with
      | Ok v when i <> 3 -> Alcotest.(check string) "value" (J.canonical (J.Int i)) (J.canonical v)
      | Ok _ -> Alcotest.fail "job 3 should have failed"
      | Error msg when i = 3 ->
          Alcotest.(check bool) "error names the exception" true
            (let nh = String.length msg in
             let needle = "boom three" in
             let nn = String.length needle in
             let rec go k =
               k + nn <= nh && (String.sub msg k nn = needle || go (k + 1))
             in
             go 0)
      | Error msg -> Alcotest.failf "job %d unexpectedly failed: %s" i msg)
    results;
  Alcotest.(check int) "one error" 1 stats.Sched.Pool.ps_errors;
  Alcotest.(check int) "all jobs accounted" 8 stats.Sched.Pool.ps_jobs

let test_failed_jobs_not_cached () =
  with_cache (fun cache ->
      let calls = Atomic.make 0 in
      let mk () =
        [
          job ~label:"flaky" ~spec:"flaky" (fun () ->
              Atomic.incr calls;
              if Atomic.get calls = 1 then failwith "transient";
              J.Int 42);
        ]
      in
      let r1, _ = Sched.Pool.run ~jobs:1 ~cache (mk ()) in
      (match r1.(0) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "first attempt should fail");
      let r2, _ = Sched.Pool.run ~jobs:1 ~cache (mk ()) in
      (match r2.(0) with
      | Ok v ->
          Alcotest.(check string) "second attempt recomputes" "42"
            (J.canonical v)
      | Error msg -> Alcotest.failf "second attempt failed: %s" msg);
      Alcotest.(check int) "ran twice (failure was not cached)" 2
        (Atomic.get calls))

(* ------------------------------------------------------------------ *)
(* Runspec JSON round-trip                                             *)
(* ------------------------------------------------------------------ *)

let test_runspec_roundtrip () =
  let specs =
    [
      R.default;
      R.(
        default |> with_engine I.Spmd.Domains
        |> with_machine (Some Autocfd_perfmodel.Model.pentium_cluster)
        |> with_input [ 1.5; 2.5 ]);
      R.(
        default
        |> with_machine (Some Autocfd_perfmodel.Model.pentium_cluster)
        |> with_tracer (Some (Autocfd_obs.Trace.create ()))
        |> with_faults
             (Some
                (M.Fault.make
                   (M.Fault.spec ~seed:7 ~loss:0.05 ~jitter:1e-4
                      ~degrade:[ (0, 1, 2.0) ]
                      ~stalls:
                        [
                          {
                            M.Fault.sl_rank = 1;
                            sl_at = M.Fault.At_time 0.25;
                            sl_duration = 0.125;
                          };
                        ]
                      ~crashes:
                        [ { M.Fault.cr_rank = 2; cr_at = M.Fault.At_op 11 } ]
                      ())))
        |> with_recovery (Some I.Spmd.default_recovery));
    ]
  in
  List.iteri
    (fun i spec ->
      let j = R.to_json spec in
      let rt = R.of_json j in
      Alcotest.(check string)
        (Printf.sprintf "spec %d: canonical JSON stable over round-trip" i)
        (J.canonical j)
        (J.canonical (R.to_json rt)))
    specs

let test_runspec_canonical_key_stable () =
  (* field order must not matter once canonicalized: a reordered key
     addresses the same cache entry *)
  let a = J.Obj [ ("x", J.Int 1); ("y", J.Str "s") ] in
  let b = J.Obj [ ("y", J.Str "s"); ("x", J.Int 1) ] in
  Alcotest.(check string) "canonical collapses field order" (J.canonical a)
    (J.canonical b);
  let ja = Sched.Job.make ~label:"a" ~key:a (fun () -> J.Null) in
  let jb = Sched.Job.make ~label:"b" ~key:b (fun () -> J.Null) in
  Alcotest.(check string) "same content address"
    (Sched.Job.cache_name ja) (Sched.Job.cache_name jb)

let test_stale_tmp_swept () =
  (* a crashed writer's abandoned cache temp file: opening the cache
     must sweep it (and count it), while a fresh temp file survives *)
  let dir = tmp_cache_dir () in
  let stale = Filename.concat dir "abandoned.json.tmp" in
  let fresh = Filename.concat dir "inflight.json.tmp" in
  List.iter
    (fun p ->
      let oc = open_out p in
      output_string oc "{}";
      close_out oc)
    [ stale; fresh ];
  (* backdate the stale one past any plausible cutoff *)
  let old = Unix.gettimeofday () -. 3600.0 in
  Unix.utimes stale old old;
  let cache = Sched.Cache.create ~dir ~stale_age:600.0 () in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove fresh with Sys_error _ -> ());
      Sched.Cache.clear cache;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check int) "one stale temp swept" 1
        (Sched.Cache.stale_cleaned cache);
      Alcotest.(check bool) "stale temp removed" false (Sys.file_exists stale);
      Alcotest.(check bool) "fresh temp kept" true (Sys.file_exists fresh))

let test_unwritable_cache_dir_rejected () =
  if Unix.getuid () = 0 then begin
    (* root ignores permission bits, but not a path below a regular
       file: creating it fails with ENOTDIR *)
    let file = Filename.temp_file "autocfd_sched_test" ".file" in
    Fun.protect
      ~finally:(fun () -> Sys.remove file)
      (fun () ->
        match Sched.Cache.create ~dir:(Filename.concat file "cache") () with
        | _ -> Alcotest.fail "expected Sys_error for a cache dir below a file"
        | exception Sys_error _ -> ())
  end
  else begin
    let dir = tmp_cache_dir () in
    Unix.chmod dir 0o500;
    Fun.protect
      ~finally:(fun () ->
        Unix.chmod dir 0o755;
        try Sys.rmdir dir with Sys_error _ -> ())
      (fun () ->
        match Sched.Cache.create ~dir () with
        | _ -> Alcotest.fail "expected Sys_error for unwritable cache dir"
        | exception Sys_error _ -> ())
  end

let test_machinery_failure_propagates () =
  (* job-thunk exceptions are isolated per slot, but an exception from
     the pool machinery itself — here the cache store writing into a
     directory deleted mid-run — must re-raise out of Pool.run (with its
     original backtrace) instead of being swallowed by Domain.join *)
  let dir = tmp_cache_dir () in
  let cache = Sched.Cache.create ~dir () in
  Sys.rmdir dir;
  match
    Sched.Pool.run ~jobs:1 ~cache
      [ job ~label:"store-fails" ~spec:"store-fails" (fun () -> J.Int 1) ]
  with
  | _ -> Alcotest.fail "expected the cache-store failure to propagate"
  | exception Sys_error _ -> ()

let suite =
  [
    ("pool deterministic (jobs 1 vs 4)", `Quick, test_pool_deterministic);
    ("stale cache temp files swept", `Quick, test_stale_tmp_swept);
    ("unwritable cache dir rejected", `Quick,
     test_unwritable_cache_dir_rejected);
    ("machinery failure propagates", `Quick,
     test_machinery_failure_propagates);
    ("table1 rows deterministic", `Quick, test_table_rows_deterministic);
    ("table job key derived from its spec", `Quick, test_table_job_key);
    ("cache hit bit-identical", `Quick, test_cache_hit_identical);
    ("cache invalidation", `Quick, test_cache_invalidation);
    ("cache lookup checks stored key", `Quick, test_cache_lookup_checks_key);
    ("corruption-miss counter", `Quick, test_corruption_miss_counter);
    ("raising job does not wedge pool", `Quick,
     test_raising_job_does_not_wedge);
    ("failed jobs are not cached", `Quick, test_failed_jobs_not_cached);
    ("runspec JSON round-trip", `Quick, test_runspec_roundtrip);
    ("canonical keys ignore field order", `Quick,
     test_runspec_canonical_key_stable);
  ]
