module J = Autocfd_obs.Json
module Trace = Autocfd_obs.Trace

type outcome = Ran | Hit | Failed of string

type event = {
  pe_worker : int;
  pe_index : int;
  pe_label : string;
  pe_t0 : float;
  pe_t1 : float;
  pe_outcome : outcome;
}

type stats = {
  ps_jobs : int;
  ps_hits : int;
  ps_misses : int;
  ps_errors : int;
  ps_corrupt : int;
  ps_elapsed : float;
  ps_busy : float array;
  ps_ran : int array;
  ps_events : event list;
}

let utilization stats w =
  if stats.ps_elapsed <= 0.0 || w < 0 || w >= Array.length stats.ps_busy then
    0.0
  else Float.min 1.0 (stats.ps_busy.(w) /. stats.ps_elapsed)

let default_jobs () = Domain.recommended_domain_count ()

let execute ?cache job =
  match Option.bind cache (fun c -> Cache.lookup c job) with
  | Some v -> (Hit, Ok v)
  | None -> (
      match job.Job.jb_run () with
      | v ->
          Option.iter (fun c -> Cache.store c job v) cache;
          (Ran, Ok v)
      | exception e ->
          let msg = Printexc.to_string e in
          (Failed msg, Error msg))

let batch_stats ?cache ?tracer ~workers ~corrupt0 ~elapsed events =
  let ordered =
    Array.to_list events |> List.filter_map Fun.id
    |> List.sort (fun a b ->
           match compare a.pe_t0 b.pe_t0 with
           | 0 -> compare a.pe_index b.pe_index
           | c -> c)
  in
  let busy = Array.make workers 0.0 and ran = Array.make workers 0 in
  List.iter
    (fun e ->
      let w = e.pe_worker in
      if w >= 0 && w < workers then begin
        busy.(w) <- busy.(w) +. (e.pe_t1 -. e.pe_t0);
        ran.(w) <- ran.(w) + 1
      end)
    ordered;
  let count p = List.length (List.filter (fun e -> p e.pe_outcome) ordered) in
  let hits = count (fun o -> o = Hit) in
  (* Trace is not thread-safe: the events are recorded here, from the
     calling domain, after the batch *)
  (match tracer with
  | None -> ()
  | Some tr ->
      Trace.prepare tr ~nranks:workers;
      List.iter
        (fun e ->
          let what =
            match e.pe_outcome with
            | Ran -> "run"
            | Hit -> "hit"
            | Failed _ -> "error"
          in
          Trace.record tr ~rank:e.pe_worker ~t0:e.pe_t0 ~t1:e.pe_t1
            (Trace.Sched { what; job = e.pe_label }))
        ordered);
  let n = Array.length events in
  {
    ps_jobs = n;
    ps_hits = hits;
    ps_misses = n - hits;
    ps_errors = count (function Failed _ -> true | _ -> false);
    ps_corrupt =
      (match cache with
      | Some c -> Cache.corruption_misses c - corrupt0
      | None -> 0);
    ps_elapsed = elapsed;
    ps_busy = busy;
    ps_ran = ran;
    ps_events = ordered;
  }

let run ?jobs ?cache ?tracer job_list =
  let njobs =
    match jobs with Some n -> max 1 n | None -> default_jobs ()
  in
  let arr = Array.of_list job_list in
  let n = Array.length arr in
  let nworkers = max 1 (min njobs (max 1 n)) in
  (* each slot is written only by the worker that took its job, and read
     after every worker domain has been joined *)
  let results = Array.make n (Error "job not run") in
  let events = Array.make n None in
  let corrupt0 =
    match cache with Some c -> Cache.corruption_misses c | None -> 0
  in
  let t_start = Unix.gettimeofday () in
  let now () = Unix.gettimeofday () -. t_start in
  let exec w i =
    let job = arr.(i) in
    let t0 = now () in
    let outcome, res = execute ?cache job in
    results.(i) <- res;
    events.(i) <-
      Some
        {
          pe_worker = w;
          pe_index = i;
          pe_label = job.Job.jb_label;
          pe_t0 = t0;
          pe_t1 = now ();
          pe_outcome = outcome;
        }
  in
  (* the next unclaimed submission index: workers take jobs in
     submission order until the list runs out *)
  let next = Atomic.make 0 in
  let rec worker w () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      exec w i;
      worker w ()
    end
  in
  (* exceptions from job thunks are captured per-slot in [exec]; anything
     escaping a worker here is pool machinery failing (e.g. the cache
     store raising).  Capture the first such failure with its backtrace,
     let every domain finish, then re-raise it at the original trace —
     [Domain.join] alone would lose the backtrace of a spawned domain. *)
  let failure = ref None in
  let failure_lock = Mutex.create () in
  let guarded w () =
    try worker w ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.protect failure_lock (fun () ->
          if !failure = None then failure := Some (e, bt))
  in
  if nworkers = 1 then guarded 0 ()
  else begin
    let domains =
      Array.init (nworkers - 1) (fun k -> Domain.spawn (guarded (k + 1)))
    in
    guarded 0 ();
    Array.iter Domain.join domains
  end;
  (match !failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ());
  let elapsed = now () in
  ( results,
    batch_stats ?cache ?tracer ~workers:nworkers ~corrupt0 ~elapsed events )
