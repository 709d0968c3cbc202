type rank_row = {
  rr_rank : int;
  rr_compute : float;
  rr_comm : float;
  rr_blocked : float;
  rr_finish : float;
}

type sync_row = {
  sr_id : int;
  sr_label : string;
  sr_loop : string option;
  sr_executions : int;
  sr_messages : int;
  sr_bytes : int;
  sr_comm_time : float;
  sr_blocked_time : float;
  sr_phase_time : float;
  sr_max : float;
  sr_latency : int array;
}

type kind_row = {
  kb_kind : string;
  kb_events : int;
  kb_bytes : int;
  kb_time : float;
  kb_sizes : int array;
}

type kernel_row = {
  kr_name : string;
  kr_line : int;
  kr_fused : bool;
  kr_frag : int;
  kr_nfrags : int;
  kr_calls : int;
  kr_flops : float;
  kr_bytes : float;
  kr_self : float;
}

type wait_row = {
  wr_kind : string;
  wr_rank : int;
  wr_seconds : float;
  wr_hist : int array;
}

type t = {
  ranks : rank_row array;
  syncs : sync_row list;
  elapsed : float;
  messages : int;
  bytes : int;
  by_kind : kind_row list;
  kernels : kernel_row list;
  collectives : (string * int) list;
  waits : wait_row list;
  faults : (string * int) list;
  retransmits : int;
  checkpoints : int;
  restores : int;
  checkpoint_bytes : int;
  wall : bool;
}

(* [f] applied to the row under [key], made by [init] on first use *)
let update tbl key init f =
  Hashtbl.replace tbl key
    (f (match Hashtbl.find_opt tbl key with Some r -> r | None -> init ()))

let rows tbl cmp = List.sort cmp (Hashtbl.fold (fun _ r acc -> r :: acc) tbl [])
let counts bounds = Array.make (Array.length bounds + 1) 0

let observe hist bounds v =
  let i = Registry.bucket bounds v in
  hist.(i) <- hist.(i) + 1

let of_trace tr =
  let n = Trace.nranks tr in
  let compute = Array.make n 0.0
  and comm = Array.make n 0.0
  and blocked = Array.make n 0.0
  and finish = Array.make n 0.0 in
  let add a r v = if r >= 0 && r < n then a.(r) <- a.(r) +. v in
  let messages = ref 0 and bytes = ref 0 and retransmits = ref 0 in
  let checkpoints = ref 0 and restores = ref 0 and checkpoint_bytes = ref 0 in
  let wall = ref false in
  let syncs = Hashtbl.create 16 and kinds = Hashtbl.create 8 in
  let kernels = Hashtbl.create 16 and waits = Hashtbl.create 8 in
  let collectives = Hashtbl.create 4 and faults = Hashtbl.create 4 in
  let kind_order = ref [] in
  let count tbl k = update tbl k (fun () -> (k, 0)) (fun (k, c) -> (k, c + 1)) in
  let by_kind ~kind ~b dur =
    update kinds kind
      (fun () ->
        kind_order := kind :: !kind_order;
        { kb_kind = kind; kb_events = 0; kb_bytes = 0; kb_time = 0.0;
          kb_sizes = counts Registry.bytes_buckets })
      (fun k ->
        observe k.kb_sizes Registry.bytes_buckets (float_of_int b);
        { k with kb_events = k.kb_events + 1; kb_bytes = k.kb_bytes + b;
                 kb_time = k.kb_time +. dur })
  in
  List.iter
    (fun (e : Trace.event) ->
      let r = e.Trace.ev_rank in
      let dur = e.Trace.ev_t1 -. e.Trace.ev_t0 in
      (* [f] applied to the row of the sync point the event is inside *)
      let sync f =
        let id = e.Trace.ev_sync in
        if id >= 0 then
          update syncs id
            (fun () ->
              { sr_id = id; sr_label = ""; sr_loop = None; sr_executions = 0;
                sr_messages = 0; sr_bytes = 0; sr_comm_time = 0.0;
                sr_blocked_time = 0.0; sr_phase_time = 0.0; sr_max = 0.0;
                sr_latency = counts Registry.seconds_buckets })
            f
      in
      wall := !wall || e.Trace.ev_wall;
      (* kernel and sched events are summaries / wall-clock lanes: they do
         not extend a rank's virtual finish time *)
      (match e.Trace.ev_kind with
      | Trace.Kernel _ | Trace.Sched _ -> ()
      | _ ->
          if r >= 0 && r < n then
            finish.(r) <- Float.max finish.(r) e.Trace.ev_t1);
      match e.Trace.ev_kind with
      | Trace.Compute -> add compute r dur
      | (Trace.Send { bytes = b; _ } | Trace.Collective { bytes = b; _ }) as k
        ->
          (* a send, or one rank's participation in a collective: each
             counts as a message and carries its payload *)
          let kind =
            match k with
            | Trace.Collective { op; _ } ->
                count collectives op;
                "collective"
            | _ -> "send"
          in
          add comm r dur;
          incr messages;
          bytes := !bytes + b;
          by_kind ~kind ~b dur;
          sync (fun s ->
              { s with sr_messages = s.sr_messages + 1;
                       sr_bytes = s.sr_bytes + b;
                       sr_comm_time = s.sr_comm_time +. dur })
      | Trace.Recv { bytes = b; _ } ->
          (* wire bytes are counted at origination (send / collective);
             recv rows appear only in the per-kind breakdown.  A Domains
             copy (wall clock) has no sender: its bytes count where they
             land *)
          let landed = if e.Trace.ev_wall then b else 0 in
          add comm r dur;
          bytes := !bytes + landed;
          by_kind ~kind:"recv" ~b dur;
          sync (fun s ->
              { s with sr_bytes = s.sr_bytes + landed;
                       sr_comm_time = s.sr_comm_time +. dur })
      | Trace.Blocked { tag; _ } ->
          add blocked r dur;
          sync (fun s -> { s with sr_blocked_time = s.sr_blocked_time +. dur });
          if e.Trace.ev_wall then
            (* a Domains-engine wait: tag -1 marks a barrier or
               collective, anything else a point-to-point receive *)
            let kind = if tag < 0 then "barrier" else "recv" in
            update waits (kind, r)
              (fun () ->
                { wr_kind = kind; wr_rank = r; wr_seconds = 0.0;
                  wr_hist = counts Registry.seconds_buckets })
              (fun w ->
                observe w.wr_hist Registry.seconds_buckets dur;
                { w with wr_seconds = w.wr_seconds +. dur })
      | Trace.Phase { label; loop; _ } ->
          sync (fun s ->
              observe s.sr_latency Registry.seconds_buckets dur;
              { s with sr_label = label;
                       sr_loop = (if loop = None then s.sr_loop else loop);
                       sr_executions = s.sr_executions + 1;
                       sr_phase_time = s.sr_phase_time +. dur;
                       sr_max = Float.max s.sr_max dur })
      | Trace.Fault { what; _ } ->
          (* stall faults carry their pause as duration: idle time *)
          count faults what;
          add blocked r dur
      | Trace.Retransmit _ -> incr retransmits
      | Trace.Checkpoint { save; bytes = b } ->
          (* snapshot/restore cost is charged like communication (the
             coordinated state movement of the recovery layer) *)
          if save then incr checkpoints else incr restores;
          checkpoint_bytes := !checkpoint_bytes + b;
          add comm r dur
      | Trace.Sched _ ->
          (* sweep-scheduler events are the pool's wall-clock lanes: its
             stats, not this fold, account for them *)
          ()
      | Trace.Kernel { name; line; fused; frag; nfrags; calls; flops;
                       bytes = kb } ->
          update kernels (line, name)
            (fun () ->
              { kr_name = name; kr_line = line; kr_fused = fused;
                kr_frag = frag; kr_nfrags = nfrags; kr_calls = 0;
                kr_flops = 0.0; kr_bytes = 0.0; kr_self = 0.0 })
            (fun k ->
              { k with kr_fused = k.kr_fused && fused;
                       kr_calls = k.kr_calls + calls;
                       kr_flops = k.kr_flops +. flops;
                       kr_bytes = k.kr_bytes +. kb;
                       kr_self = k.kr_self +. dur }))
    (Trace.events tr);
  {
    ranks =
      Array.init n (fun r ->
          { rr_rank = r; rr_compute = compute.(r); rr_comm = comm.(r);
            rr_blocked = blocked.(r); rr_finish = finish.(r) });
    syncs = rows syncs (fun a b -> compare a.sr_id b.sr_id);
    elapsed = Array.fold_left Float.max 0.0 finish;
    messages = !messages;
    bytes = !bytes;
    by_kind = List.rev_map (Hashtbl.find kinds) !kind_order;
    kernels =
      rows kernels (fun a b ->
          match compare b.kr_self a.kr_self with
          | 0 -> (
              match compare b.kr_flops a.kr_flops with
              | 0 -> compare a.kr_line b.kr_line
              | c -> c)
          | c -> c);
    collectives = rows collectives compare;
    waits =
      rows waits (fun a b ->
          compare (a.wr_kind, a.wr_rank) (b.wr_kind, b.wr_rank));
    faults = rows faults compare;
    retransmits = !retransmits;
    checkpoints = !checkpoints;
    restores = !restores;
    checkpoint_bytes = !checkpoint_bytes;
    wall = !wall;
  }

let to_json m =
  let rank_json (r : rank_row) =
    Json.Obj
      [
        ("rank", Json.Int r.rr_rank);
        ("compute", Json.Float r.rr_compute);
        ("comm", Json.Float r.rr_comm);
        ("blocked", Json.Float r.rr_blocked);
        ("finish", Json.Float r.rr_finish);
      ]
  in
  let sync_json (s : sync_row) =
    Json.Obj
      [
        ("id", Json.Int s.sr_id);
        ("label", Json.Str s.sr_label);
        ("loop",
         match s.sr_loop with Some v -> Json.Str v | None -> Json.Null);
        ("executions", Json.Int s.sr_executions);
        ("messages", Json.Int s.sr_messages);
        ("bytes", Json.Int s.sr_bytes);
        ("comm_time", Json.Float s.sr_comm_time);
        ("blocked_time", Json.Float s.sr_blocked_time);
        ("phase_time", Json.Float s.sr_phase_time);
      ]
  in
  let kind_json (k : kind_row) =
    Json.Obj
      [
        ("kind", Json.Str k.kb_kind);
        ("events", Json.Int k.kb_events);
        ("bytes", Json.Int k.kb_bytes);
        ("time", Json.Float k.kb_time);
      ]
  in
  let kernel_json (k : kernel_row) =
    Json.Obj
      [
        ("name", Json.Str k.kr_name);
        ("line", Json.Int k.kr_line);
        ("fused", Json.Bool k.kr_fused);
        ("frag", Json.Int k.kr_frag);
        ("nfrags", Json.Int k.kr_nfrags);
        ("calls", Json.Int k.kr_calls);
        ("flops", Json.Float k.kr_flops);
        ("bytes", Json.Float k.kr_bytes);
        ("self_time", Json.Float k.kr_self);
      ]
  in
  Json.Obj
    [
      ("schema", Json.Str "autocfd-metrics/3");
      ("elapsed", Json.Float m.elapsed);
      ("messages", Json.Int m.messages);
      ("bytes", Json.Int m.bytes);
      ("faults", Json.Int (List.fold_left (fun a (_, c) -> a + c) 0 m.faults));
      ("retransmits", Json.Int m.retransmits);
      ("checkpoints", Json.Int m.checkpoints);
      ("restores", Json.Int m.restores);
      ("by_kind", Json.List (List.map kind_json m.by_kind));
      ("ranks", Json.List (List.map rank_json (Array.to_list m.ranks)));
      ("sync_points", Json.List (List.map sync_json m.syncs));
      ("kernels", Json.List (List.map kernel_json m.kernels));
    ]

let to_prometheus m =
  let module R = Registry in
  let fam name help samples = { R.name; help; samples } in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let int_series label l =
    List.map (fun (k, c) -> ([ (label, k) ], float_of_int c)) l
  in
  let hist bounds counts sum = { R.bounds; counts; sum } in
  let kinds = List.sort (fun a b -> compare a.kb_kind b.kb_kind) m.by_kind in
  (* originated traffic: the recv row carries comm seconds only *)
  let sent = List.filter (fun k -> k.kb_kind <> "recv") kinds in
  let per_kind rows f = List.map (fun k -> ([ ("kind", k.kb_kind) ], f k)) rows in
  let kernels = List.sort (fun a b -> compare a.kr_name b.kr_name) m.kernels in
  let per_kernel f = List.map (fun k -> ([ ("kernel", k.kr_name) ], f k)) kernels in
  let per_sync f =
    List.map
      (fun s -> ([ ("id", string_of_int s.sr_id); ("sync", s.sr_label) ], f s))
      m.syncs
  in
  (* every seconds family names the run's clock in its HELP *)
  let clock = if m.wall then "wall-clock" else "virtual" in
  let ranks = Array.to_list m.ranks in
  let series_if cond v = if cond then [ ([], v) ] else [] in
  let wait_kinds = List.sort_uniq compare (List.map (fun w -> w.wr_kind) m.waits) in
  R.to_prometheus
    [
      fam "autocfd_compute_seconds_total"
        (clock ^ " compute seconds across ranks")
        (R.Counter [ ([], sum (fun r -> r.rr_compute) ranks) ]);
      fam "autocfd_blocked_seconds_total"
        (clock ^ " blocked-idle seconds across ranks")
        (R.Counter [ ([], sum (fun r -> r.rr_blocked) ranks) ]);
      fam "autocfd_messages_total"
        "messages originated (p2p sends and collective participations)"
        (R.Counter (per_kind sent (fun k -> float_of_int k.kb_events)));
      fam "autocfd_comm_bytes_total"
        "payload bytes originated, by communication kind"
        (R.Counter (per_kind sent (fun k -> float_of_int k.kb_bytes)));
      fam "autocfd_comm_seconds_total"
        (clock ^ " communication seconds, by kind")
        (R.Counter (per_kind kinds (fun k -> k.kb_time)));
      fam "autocfd_message_bytes" "message size distribution"
        (R.Histogram
           (per_kind sent (fun k ->
                hist R.bytes_buckets k.kb_sizes (float_of_int k.kb_bytes))));
      fam "autocfd_collectives_total"
        "per-rank collective participations, by operation"
        (R.Counter (int_series "op" m.collectives));
      fam "autocfd_sync_executions_total"
        "phase entries per combined synchronization point"
        (R.Counter (per_sync (fun s -> float_of_int s.sr_executions)));
      fam "autocfd_sync_latency_seconds"
        "per-execution latency of each combined sync point"
        (R.Histogram
           (per_sync (fun s ->
                hist R.seconds_buckets s.sr_latency s.sr_phase_time)));
      fam "autocfd_domains_wait_seconds_total"
        "wall-clock seconds Domains-engine ranks spent blocked"
        (R.Counter
           (List.map
              (fun kind ->
                ( [ ("kind", kind) ],
                  sum (fun w -> w.wr_seconds)
                    (List.filter (fun w -> w.wr_kind = kind) m.waits) ))
              wait_kinds));
      fam "autocfd_domains_barrier_wait_seconds"
        "per-rank wall-clock wait distribution of the Domains engine"
        (R.Histogram
           (List.map
              (fun w ->
                ( [ ("kind", w.wr_kind); ("rank", string_of_int w.wr_rank) ],
                  hist R.seconds_buckets w.wr_hist w.wr_seconds ))
              m.waits));
      fam "autocfd_faults_total" "injected fault events"
        (R.Counter (int_series "what" m.faults));
      fam "autocfd_retransmits_total" "reliable-transport retransmissions"
        (R.Counter
           (series_if (m.retransmits > 0) (float_of_int m.retransmits)));
      fam "autocfd_checkpoints_total" "recovery-layer snapshots and restores"
        (R.Counter
           (int_series "op"
              (List.filter
                 (fun (_, c) -> c > 0)
                 [ ("restore", m.restores); ("save", m.checkpoints) ])));
      fam "autocfd_checkpoint_bytes_total" "bytes moved by the recovery layer"
        (R.Counter
           (series_if
              (m.checkpoints + m.restores > 0)
              (float_of_int m.checkpoint_bytes)));
      fam "autocfd_kernel_calls_total" "field-loop nest executions"
        (R.Counter (per_kernel (fun k -> float_of_int k.kr_calls)));
      fam "autocfd_kernel_flops_total" "self flops per field-loop nest"
        (R.Counter (per_kernel (fun k -> k.kr_flops)));
      fam "autocfd_kernel_bytes_total"
        "bytes moved by the fused kernel tier per nest"
        (R.Counter (per_kernel (fun k -> k.kr_bytes)));
      fam "autocfd_kernel_self_seconds_total"
        (clock ^ " self compute seconds per field-loop nest")
        (R.Counter (per_kernel (fun k -> k.kr_self)));
    ]
