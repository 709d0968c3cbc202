module J = Autocfd_obs.Json
module Trace = Autocfd_obs.Trace

(* ------------------------------------------------------------------ *)
(* addresses                                                          *)

type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let addr_of_string s =
  let bad () = Error (Printf.sprintf "%s: not a fabric address" s) in
  if String.length s >= 5 && String.sub s 0 5 = "unix:" then
    let p = String.sub s 5 (String.length s - 5) in
    if p = "" then bad () else Ok (Unix_path p)
  else
    match String.rindex_opt s ':' with
    | None -> if s = "" then bad () else Ok (Unix_path s)
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
        | _ -> bad ())

exception Fabric_error of string

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found | Invalid_argument _ ->
            raise (Fabric_error (host ^ ": host not found")))
      in
      Unix.ADDR_INET (ip, port)

let socket_domain = function
  | Unix_path _ -> Unix.PF_UNIX
  | Tcp _ -> Unix.PF_INET

(* ------------------------------------------------------------------ *)
(* wire protocol                                                      *)

type msg =
  | Hello of { mh_worker : string; mh_pid : int }
  | Assign of { ma_id : int; ma_label : string; ma_spec : J.t }
  | Heartbeat of { mb_id : int }
  | Result of { mr_id : int; mr_result : J.t }
  | Failure of { mf_id : int; mf_error : string }
  | Shutdown

let msg_to_json = function
  | Hello { mh_worker; mh_pid } ->
      J.Obj
        [
          ("type", J.Str "hello");
          ("worker", J.Str mh_worker);
          ("pid", J.Int mh_pid);
        ]
  | Assign { ma_id; ma_label; ma_spec } ->
      J.Obj
        [
          ("type", J.Str "assign");
          ("id", J.Int ma_id);
          ("label", J.Str ma_label);
          ("spec", ma_spec);
        ]
  | Heartbeat { mb_id } ->
      J.Obj [ ("type", J.Str "heartbeat"); ("id", J.Int mb_id) ]
  | Result { mr_id; mr_result } ->
      J.Obj
        [ ("type", J.Str "result"); ("id", J.Int mr_id); ("result", mr_result) ]
  | Failure { mf_id; mf_error } ->
      J.Obj
        [
          ("type", J.Str "failure");
          ("id", J.Int mf_id);
          ("error", J.Str mf_error);
        ]
  | Shutdown -> J.Obj [ ("type", J.Str "shutdown") ]

let msg_of_json doc =
  let str k =
    match J.member k doc with Some (J.Str s) -> Some s | _ -> None
  in
  let int k =
    match J.member k doc with Some (J.Int i) -> Some i | _ -> None
  in
  match str "type" with
  | Some "hello" -> (
      match (str "worker", int "pid") with
      | Some w, Some p -> Ok (Hello { mh_worker = w; mh_pid = p })
      | _ -> Error "hello: missing worker/pid")
  | Some "assign" -> (
      match (int "id", str "label", J.member "spec" doc) with
      | Some id, Some label, Some spec ->
          Ok (Assign { ma_id = id; ma_label = label; ma_spec = spec })
      | _ -> Error "assign: missing id/label/spec")
  | Some "heartbeat" -> (
      match int "id" with
      | Some id -> Ok (Heartbeat { mb_id = id })
      | None -> Error "heartbeat: missing id")
  | Some "result" -> (
      match (int "id", J.member "result" doc) with
      | Some id, Some r -> Ok (Result { mr_id = id; mr_result = r })
      | _ -> Error "result: missing id/result")
  | Some "failure" -> (
      match (int "id", str "error") with
      | Some id, Some e -> Ok (Failure { mf_id = id; mf_error = e })
      | _ -> Error "failure: missing id/error")
  | Some "shutdown" -> Ok Shutdown
  | Some other -> Error (other ^ ": unknown message type")
  | None -> Error "message without a type"

let msg_to_string m = J.to_string (msg_to_json m)

let msg_of_string s =
  match J.of_string s with
  | exception J.Parse_error e -> Error ("unparsable message: " ^ e)
  | doc -> msg_of_json doc

(* ------------------------------------------------------------------ *)
(* master                                                             *)

type cfg = {
  fb_grace : float;
  fb_lease : float;
  fb_heartbeat : float;
  fb_max_attempts : int;
  fb_backoff : float;
  fb_backoff_mult : float;
  fb_fallback_jobs : int option;
  fb_chaos_kill : int option;
}

let default_cfg =
  {
    fb_grace = 5.0;
    fb_lease = 30.0;
    fb_heartbeat = 1.0;
    fb_max_attempts = 3;
    fb_backoff = 0.05;
    fb_backoff_mult = 2.0;
    fb_fallback_jobs = None;
    fb_chaos_kill = None;
  }

type wstate = {
  w_index : int;
  w_conn : Frame.conn;
  mutable w_id : string;
  mutable w_pid : int option;
  mutable w_ready : bool;  (** said hello *)
  mutable w_alive : bool;
  mutable w_job : int option;  (** global job id it holds a lease on *)
  mutable w_deadline : float;  (** lease expiry, absolute *)
  mutable w_lease_t0 : float;  (** batch-relative, for the trace *)
  mutable w_leases : int;
  mutable w_done : int;
}

type t = {
  t_cfg : cfg;
  t_listen : Unix.file_descr;
  t_addr : addr;
  mutable t_workers : wstate list;  (** connection order *)
  mutable t_spawned : int list;
  mutable t_next_job : int;
  mutable t_requeues : int;
  mutable t_retries : int;
  mutable t_expiries : int;
  mutable t_deaths : int;
  mutable t_quarantined : int;
  mutable t_stale : int;
  mutable t_completions : int;  (** worker-delivered results, lifetime *)
  mutable t_killed : bool;  (** the chaos kill already fired *)
  mutable t_degraded : bool;
  mutable t_shutdown : bool;
}

let create ?(cfg = default_cfg) ~listen () =
  (match listen with
  | Unix_path p when Sys.file_exists p -> (
      (* a previous master's socket file; binding over it needs it gone *)
      try Sys.remove p with Sys_error _ -> ())
  | _ -> ());
  let fd = Unix.socket (socket_domain listen) Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (sockaddr_of listen);
     Unix.listen fd 16
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise
       (Fabric_error
          (Printf.sprintf "cannot listen on %s: %s" (addr_to_string listen)
             (Unix.error_message e))));
  Unix.set_close_on_exec fd;
  (* accept_pending drains with accept-until-EAGAIN; a blocking listen
     fd would park the master on the accept after the last pending
     connection *)
  Unix.set_nonblock fd;
  let actual =
    match listen with
    | Tcp (host, 0) -> (
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, port) -> Tcp (host, port)
        | _ -> listen)
    | a -> a
  in
  {
    t_cfg = cfg;
    t_listen = fd;
    t_addr = actual;
    t_workers = [];
    t_spawned = [];
    t_next_job = 0;
    t_requeues = 0;
    t_retries = 0;
    t_expiries = 0;
    t_deaths = 0;
    t_quarantined = 0;
    t_stale = 0;
    t_completions = 0;
    t_killed = false;
    t_degraded = false;
    t_shutdown = false;
  }

let addr t = t.t_addr

let spawn_worker t ~argv =
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  in
  t.t_spawned <- pid :: t.t_spawned;
  pid

let accept_pending t =
  let rec loop () =
    match Unix.accept ~cloexec:true t.t_listen with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | fd, _ ->
        let w =
          {
            w_index = List.length t.t_workers;
            w_conn = Frame.conn fd;
            w_id = Printf.sprintf "worker#%d" (List.length t.t_workers);
            w_pid = None;
            w_ready = false;
            w_alive = true;
            w_job = None;
            w_deadline = 0.0;
            w_lease_t0 = 0.0;
            w_leases = 0;
            w_done = 0;
          }
        in
        t.t_workers <- t.t_workers @ [ w ];
        loop ()
  in
  loop ()

(* one select round: accept connections, pump readable worker
   connections; [on_msg w msg] per decoded message, [on_death w] once
   per connection that went away (EOF, a socket error or a corrupt
   frame) *)
let poll t ~timeout ~on_msg ~on_death =
  let conns =
    List.filter_map
      (fun w -> if w.w_alive then Some (Frame.fd w.w_conn, w) else None)
      t.t_workers
  in
  let fds = t.t_listen :: List.map fst conns in
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (EINTR, _, _) -> ()
  | readable, _, _ ->
      if List.memq t.t_listen readable then accept_pending t;
      List.iter
        (fun (fd, w) ->
          if List.memq fd readable then
            match Frame.pump w.w_conn with
            | payloads ->
                List.iter
                  (fun p ->
                    match msg_of_string p with
                    | Ok m -> on_msg w m
                    | Error _ ->
                        (* checksummed frames make this version skew,
                           not line noise; drop it *)
                        ())
                  payloads
            | exception Frame.Closed ->
                w.w_alive <- false;
                Frame.close w.w_conn;
                on_death w)
        conns

(* deterministic jitter in [0, 1): FNV of "index:attempt" *)
let jitter01 i k =
  let h = Job.digest (Printf.sprintf "%d:%d" i k) in
  float_of_int (int_of_string ("0x" ^ String.sub h 0 6)) /. 16777216.0

let backoff_delay cfg ~index ~attempt =
  cfg.fb_backoff
  *. (cfg.fb_backoff_mult ** float_of_int (max 0 (attempt - 1)))
  *. (1.0 +. jitter01 index attempt)

type jstate = Pending | Leased | Done

let run t ?cache ?tracer job_list =
  if t.t_shutdown then raise (Fabric_error "fabric is shut down");
  let cfg = t.t_cfg in
  let arr = Array.of_list job_list in
  let n = Array.length arr in
  let t_start = Unix.gettimeofday () in
  let now_rel () = Unix.gettimeofday () -. t_start in
  let results = Array.make n (Error "job not run") in
  let state = Array.make n Pending in
  let attempts = Array.make n 0 in
  let owner = Array.make n (-1) in
  let ready_at = Array.make n 0.0 in
  let last_error = Array.make n "" in
  let events = Array.make n None in
  (* fabric lifecycle events for the trace: (worker, t, what, label) *)
  let lifecycle = ref [] in
  let mark w what i =
    match tracer with
    | None -> ()
    | Some _ ->
        lifecycle :=
          (w, now_rel (), what, arr.(i).Job.jb_label) :: !lifecycle
  in
  let remaining = ref n in
  let id_base = t.t_next_job in
  t.t_next_job <- t.t_next_job + n;
  let idx_of_id id =
    let i = id - id_base in
    if i >= 0 && i < n then Some i else None
  in
  let corrupt0 =
    match cache with Some c -> Cache.corruption_misses c | None -> 0
  in
  let complete i ~worker ~t0 res outcome =
    results.(i) <- res;
    state.(i) <- Done;
    owner.(i) <- -1;
    decr remaining;
    events.(i) <-
      Some
        {
          Pool.pe_worker = worker;
          pe_index = i;
          pe_label = arr.(i).Job.jb_label;
          pe_t0 = t0;
          pe_t1 = now_rel ();
          pe_outcome = outcome;
        };
    match (res, cache) with
    | Ok doc, Some c -> Cache.store c arr.(i) doc
    | _ -> ()
  in
  (* cache probe up front: hits never touch a worker *)
  Array.iteri
    (fun i job ->
      match cache with
      | None -> ()
      | Some c -> (
          match Cache.lookup c job with
          | None -> ()
          | Some v ->
              let tnow = now_rel () in
              results.(i) <- Ok v;
              state.(i) <- Done;
              decr remaining;
              events.(i) <-
                Some
                  {
                    Pool.pe_worker = 0;
                    pe_index = i;
                    pe_label = job.Job.jb_label;
                    pe_t0 = tnow;
                    pe_t1 = tnow;
                    pe_outcome = Pool.Hit;
                  }))
    arr;
  let requeue ~why i =
    (* the lease (or attempt) is gone; decide between retry and
       quarantine *)
    owner.(i) <- -1;
    (match why with
    | `Error msg -> last_error.(i) <- msg
    | `Death | `Expiry -> t.t_requeues <- t.t_requeues + 1);
    if attempts.(i) >= cfg.fb_max_attempts then begin
      t.t_quarantined <- t.t_quarantined + 1;
      mark 0 "quarantine" i;
      let detail =
        if last_error.(i) = "" then "" else ": " ^ last_error.(i)
      in
      results.(i) <-
        Error
          (Printf.sprintf "quarantined after %d attempts%s" attempts.(i)
             detail);
      state.(i) <- Done;
      decr remaining;
      events.(i) <-
        Some
          {
            Pool.pe_worker = 0;
            pe_index = i;
            pe_label = arr.(i).Job.jb_label;
            pe_t0 = now_rel ();
            pe_t1 = now_rel ();
            pe_outcome =
              Pool.Failed
                (Printf.sprintf "quarantined after %d attempts%s"
                   attempts.(i) detail);
          }
    end
    else begin
      t.t_retries <- t.t_retries + 1;
      state.(i) <- Pending;
      ready_at.(i) <-
        Unix.gettimeofday ()
        +. backoff_delay cfg ~index:i ~attempt:attempts.(i)
    end
  in
  let on_death w =
    t.t_deaths <- t.t_deaths + 1;
    (match w.w_job with
    | Some id -> (
        w.w_job <- None;
        match idx_of_id id with
        | Some i when state.(i) = Leased && owner.(i) = w.w_index ->
            mark w.w_index "death" i;
            mark w.w_index "requeue" i;
            requeue ~why:`Death i
        | _ -> ())
    | None -> ())
  in
  let on_msg w msg =
    match msg with
    | Hello { mh_worker; mh_pid } ->
        w.w_id <- mh_worker;
        w.w_pid <- Some mh_pid;
        w.w_ready <- true
    | Heartbeat { mb_id } ->
        if w.w_job = Some mb_id then
          w.w_deadline <- Unix.gettimeofday () +. cfg.fb_lease
    | Result { mr_id; mr_result } -> (
        let held = w.w_job = Some mr_id in
        if held then begin
          w.w_job <- None;
          w.w_done <- w.w_done + 1
        end;
        match idx_of_id mr_id with
        | Some i when state.(i) <> Done ->
            t.t_completions <- t.t_completions + 1;
            let t0 = if held then w.w_lease_t0 else now_rel () in
            complete i ~worker:w.w_index ~t0 (Ok mr_result) Pool.Ran
        | _ -> t.t_stale <- t.t_stale + 1)
    | Failure { mf_id; mf_error } -> (
        if w.w_job = Some mf_id then w.w_job <- None;
        match idx_of_id mf_id with
        | Some i when state.(i) = Leased && owner.(i) = w.w_index ->
            mark w.w_index "requeue" i;
            requeue ~why:(`Error mf_error) i
        | _ -> ())
    | Assign _ | Shutdown -> ()
  in
  let exec_local i =
    (* a cache miss with no spec, or degraded-mode work: run it here,
       with Pool's error-isolation semantics *)
    attempts.(i) <- attempts.(i) + 1;
    owner.(i) <- -1;
    let t0 = now_rel () in
    match arr.(i).Job.jb_run () with
    | v -> complete i ~worker:0 ~t0 (Ok v) Pool.Ran
    | exception e ->
        let msg = Printexc.to_string e in
        complete i ~worker:0 ~t0 (Error msg) (Pool.Failed msg)
  in
  let ready_workers () =
    List.filter (fun w -> w.w_alive && w.w_ready) t.t_workers
  in
  let find_pending tnow =
    let best = ref None in
    for i = n - 1 downto 0 do
      if state.(i) = Pending && ready_at.(i) <= tnow then best := Some i
    done;
    !best
  in
  let dispatch () =
    let tnow = Unix.gettimeofday () in
    (* spec-less jobs can only ever run here *)
    for i = 0 to n - 1 do
      if state.(i) = Pending && arr.(i).Job.jb_spec = None then exec_local i
    done;
    List.iter
      (fun w ->
        if w.w_alive && w.w_ready && w.w_job = None then
          match find_pending tnow with
          | None -> ()
          | Some i -> (
              let id = id_base + i in
              let spec = Option.get arr.(i).Job.jb_spec in
              attempts.(i) <- attempts.(i) + 1;
              state.(i) <- Leased;
              owner.(i) <- w.w_index;
              w.w_job <- Some id;
              w.w_deadline <- tnow +. cfg.fb_lease;
              w.w_lease_t0 <- now_rel ();
              w.w_leases <- w.w_leases + 1;
              mark w.w_index "lease" i;
              (* the chaos hook: kill the worker as it takes the lease,
                 before the assignment is sent — killed after, it can win
                 the race and deliver the result first — so the CI gate
                 always observes a requeue *)
              (match cfg.fb_chaos_kill with
              | Some k when (not t.t_killed) && t.t_completions >= k -> (
                  match w.w_pid with
                  | Some pid when List.mem pid t.t_spawned ->
                      t.t_killed <- true;
                      (try Unix.kill pid Sys.sigkill
                       with Unix.Unix_error _ -> ())
                  | _ -> ())
              | _ -> ());
              match
                Frame.send w.w_conn
                  (msg_to_string
                     (Assign
                        { ma_id = id; ma_label = arr.(i).Job.jb_label;
                          ma_spec = spec }))
              with
              | () -> ()
              | exception Frame.Closed ->
                  w.w_alive <- false;
                  Frame.close w.w_conn;
                  on_death w))
      t.t_workers
  in
  let expire_leases () =
    let tnow = Unix.gettimeofday () in
    List.iter
      (fun w ->
        if w.w_alive then
          match w.w_job with
          | Some id when tnow > w.w_deadline ->
              w.w_job <- None;
              t.t_expiries <- t.t_expiries + 1;
              (match idx_of_id id with
              | Some i when state.(i) = Leased && owner.(i) = w.w_index ->
                  mark w.w_index "expire" i;
                  mark w.w_index "requeue" i;
                  requeue ~why:`Expiry i
              | _ -> ());
              (* fence the worker: it sat on the lease for the whole
                 window without a heartbeat, so it cannot be trusted
                 with another — left "ready" it would win the requeued
                 job straight back and starve it into quarantine *)
              w.w_alive <- false;
              Frame.close w.w_conn
          | _ -> ())
      t.t_workers
  in
  let degrade note =
    if not t.t_degraded then
      Printf.eprintf "fabric: %s; falling back to the in-process pool\n%!"
        note;
    t.t_degraded <- true
  in
  (if !remaining > 0 then
     (* grace window: wait for at least one ready worker *)
     let grace_end = Unix.gettimeofday () +. cfg.fb_grace in
     let rec wait () =
       if ready_workers () <> [] then ()
       else if Unix.gettimeofday () >= grace_end then ()
       else begin
         poll t ~timeout:0.05 ~on_msg ~on_death;
         wait ()
       end
     in
     wait ());
  if !remaining > 0 && ready_workers () = [] then begin
    (* no fabric at all: hand the whole batch to the in-process pool so
       its own stats/trace plumbing applies unchanged *)
    degrade
      (Printf.sprintf "no worker connected within the %.1fs grace window"
         cfg.fb_grace);
    Pool.run ?jobs:cfg.fb_fallback_jobs ?cache ?tracer job_list
  end
  else begin
    (* main loop *)
    let last_alive = ref (Unix.gettimeofday ()) in
    while !remaining > 0 do
      dispatch ();
      if !remaining > 0 then begin
        let tnow = Unix.gettimeofday () in
        if ready_workers () <> [] then last_alive := tnow
        else if tnow -. !last_alive > cfg.fb_grace then begin
          (* every worker died mid-batch and nobody reconnected: finish
             the remaining jobs locally rather than hang *)
          degrade "every worker died mid-sweep";
          for i = 0 to n - 1 do
            if state.(i) <> Done then exec_local i
          done
        end;
        if !remaining > 0 then begin
          let timeout =
            let cap = ref 0.25 in
            List.iter
              (fun w ->
                match w.w_job with
                | Some _ when w.w_alive ->
                    cap := Float.min !cap (w.w_deadline -. tnow)
                | _ -> ())
              t.t_workers;
            for i = 0 to n - 1 do
              if state.(i) = Pending then
                cap := Float.min !cap (ready_at.(i) -. tnow)
            done;
            Float.max 0.01 !cap
          in
          poll t ~timeout ~on_msg ~on_death;
          expire_leases ()
        end
      end
    done;
    let elapsed = now_rel () in
    let nw = max 1 (List.length t.t_workers) in
    let busy = Array.make nw 0.0 in
    let ran = Array.make nw 0 in
    let ordered =
      Array.to_list events |> List.filter_map Fun.id
      |> List.sort (fun a b ->
             match compare a.Pool.pe_t0 b.Pool.pe_t0 with
             | 0 -> compare a.Pool.pe_index b.Pool.pe_index
             | c -> c)
    in
    List.iter
      (fun e ->
        let w = e.Pool.pe_worker in
        if w >= 0 && w < nw then begin
          busy.(w) <- busy.(w) +. (e.Pool.pe_t1 -. e.Pool.pe_t0);
          ran.(w) <- ran.(w) + 1
        end)
      ordered;
    let hits =
      List.length
        (List.filter (fun e -> e.Pool.pe_outcome = Pool.Hit) ordered)
    in
    let errors =
      List.length
        (List.filter
           (fun e ->
             match e.Pool.pe_outcome with Pool.Failed _ -> true | _ -> false)
           ordered)
    in
    (match tracer with
    | None -> ()
    | Some tr ->
        Trace.prepare tr ~nranks:nw;
        List.iter
          (fun e ->
            let what =
              match e.Pool.pe_outcome with
              | Pool.Ran -> "run"
              | Pool.Hit -> "hit"
              | Pool.Failed _ -> "error"
            in
            Trace.record tr ~rank:e.Pool.pe_worker ~t0:e.Pool.pe_t0
              ~t1:e.Pool.pe_t1
              (Trace.Sched { what; job = e.Pool.pe_label }))
          ordered;
        List.iter
          (fun (w, tm, what, label) ->
            let rank = if w >= 0 && w < nw then w else 0 in
            Trace.record tr ~rank ~t0:tm ~t1:tm
              (Trace.Sched { what; job = label }))
          (List.rev !lifecycle));
    ( results,
      {
        Pool.ps_jobs = n;
        ps_hits = hits;
        ps_misses = n - hits;
        ps_errors = errors;
        ps_corrupt =
          (match cache with
          | Some c -> Cache.corruption_misses c - corrupt0
          | None -> 0);
        ps_elapsed = elapsed;
        ps_busy = busy;
        ps_ran = ran;
        ps_events = ordered;
      } )
  end

(* ------------------------------------------------------------------ *)
(* statistics                                                         *)

type worker_stats = {
  ws_id : string;
  ws_pid : int option;
  ws_alive : bool;
  ws_leases : int;
  ws_done : int;
  ws_corrupt : int;
}

type stats = {
  fs_workers : worker_stats list;
  fs_requeues : int;
  fs_retries : int;
  fs_lease_expiries : int;
  fs_worker_deaths : int;
  fs_quarantined : int;
  fs_stale_results : int;
  fs_corrupt_frames : int;
  fs_retransmits : int;
  fs_dup_suppressed : int;
  fs_degraded : bool;
}

let stats t =
  let workers =
    List.map
      (fun w ->
        {
          ws_id = w.w_id;
          ws_pid = w.w_pid;
          ws_alive = w.w_alive;
          ws_leases = w.w_leases;
          ws_done = w.w_done;
          ws_corrupt = Frame.corrupt w.w_conn;
        })
      t.t_workers
  in
  {
    fs_workers = workers;
    fs_requeues = t.t_requeues;
    fs_retries = t.t_retries;
    fs_lease_expiries = t.t_expiries;
    fs_worker_deaths = t.t_deaths;
    fs_quarantined = t.t_quarantined;
    fs_stale_results = t.t_stale;
    fs_corrupt_frames =
      List.fold_left (fun acc w -> acc + w.ws_corrupt) 0 workers;
    fs_retransmits = 0;
    fs_dup_suppressed = 0;
    fs_degraded = t.t_degraded;
  }

let shutdown t =
  if not t.t_shutdown then begin
    t.t_shutdown <- true;
    List.iter
      (fun w ->
        if w.w_alive then begin
          (try Frame.send w.w_conn (msg_to_string Shutdown)
           with Frame.Closed -> ());
          w.w_alive <- false
        end;
        Frame.close w.w_conn)
      t.t_workers;
    (try Unix.close t.t_listen with Unix.Unix_error _ -> ());
    (match t.t_addr with
    | Unix_path p -> ( try Sys.remove p with Sys_error _ -> ())
    | Tcp _ -> ());
    let deadline = Unix.gettimeofday () +. 2.0 in
    List.iter
      (fun pid ->
        let rec reap () =
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ ->
              if Unix.gettimeofday () < deadline then begin
                ignore (Unix.select [] [] [] 0.02);
                reap ()
              end
              else begin
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                try ignore (Unix.waitpid [] pid)
                with Unix.Unix_error _ -> ()
              end
          | _ -> ()
          | exception Unix.Unix_error (ECHILD, _, _) -> ()
        in
        reap ())
      t.t_spawned
  end

(* ------------------------------------------------------------------ *)
(* worker                                                             *)

let serve ~connect ?id ?(heartbeat = 1.0) ~resolve () =
  let connected =
    let fd = Unix.socket (socket_domain connect) Unix.SOCK_STREAM 0 in
    match Unix.connect fd (sockaddr_of connect) with
    | () -> Ok fd
    | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error
          (Printf.sprintf "cannot reach fabric master at %s: %s"
             (addr_to_string connect) (Unix.error_message e))
    | exception Fabric_error msg ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error msg
  in
  match connected with
  | Error _ as e -> e
  | Ok fd ->
      let conn = Frame.conn fd in
      let wid =
        match id with
        | Some s -> s
        | None -> Printf.sprintf "worker-%d" (Unix.getpid ())
      in
      (try
         Frame.send conn
           (msg_to_string (Hello { mh_worker = wid; mh_pid = Unix.getpid () }))
       with Frame.Closed -> ());
      (* the heartbeat thread keeps the master's lease on the job the
         main loop is currently resolving alive *)
      let current = Atomic.make (-1) in
      let stop = Atomic.make false in
      let hb =
        Thread.create
          (fun () ->
            while not (Atomic.get stop) do
              Thread.delay (Float.max 0.01 (heartbeat /. 2.0));
              let id = Atomic.get current in
              if id >= 0 && not (Atomic.get stop) then
                try Frame.send conn (msg_to_string (Heartbeat { mb_id = id }))
                with Frame.Closed -> Atomic.set stop true
            done)
          ()
      in
      let finish r =
        Atomic.set stop true;
        (try Thread.join hb with _ -> ());
        Frame.close conn;
        r
      in
      let handle payload =
        match msg_of_string payload with
        | Ok (Assign { ma_id; ma_spec; _ }) ->
            Atomic.set current ma_id;
            let reply =
              try Result { mr_id = ma_id; mr_result = resolve ma_spec }
              with e ->
                Failure { mf_id = ma_id; mf_error = Printexc.to_string e }
            in
            Atomic.set current (-1);
            (try Frame.send conn (msg_to_string reply)
             with Frame.Closed -> ());
            false
        | Ok Shutdown -> true
        | Ok _ | Error _ -> false
      in
      (* a corrupt frame from the master ends the connection like the
         master going away *)
      let rec loop () =
        match Frame.pump conn with
        | exception Frame.Closed -> Ok ()
        | payloads -> if List.exists handle payloads then Ok () else loop ()
      in
      finish (loop ())
