open Autocfd_fortran
module A = Autocfd_analysis
module P = Autocfd_partition
module N = Autocfd_mpsim.Netmodel

type machine = {
  flop_rate : float;
  cache_bytes : float;
  cache_penalty : float;
  mem_bytes : float;
  mem_penalty : float;
  net : N.t;
  overlap : float;
}

let pentium_cluster =
  {
    flop_rate = 2.0e7;
    cache_bytes = 128.0e3;
    cache_penalty = 0.3;
    mem_bytes = 4.0e6;
    mem_penalty = 1.0;
    net =
      {
        N.latency = 1.0e-4;
        bandwidth = 0.5e6;
        send_overhead = 2.0e-5;
        recv_overhead = 2.0e-5;
      };
    overlap = 0.5;
  }

type census = {
  flops_block : float;
  flops_pipeline : float;
  flops_serial : float;
  exchanges : float;
  exchange_msgs : float;
  exchange_bytes : float;
  pipe_msgs : float;
  pipe_bytes : float;
  reductions : float;
  wave_stages : int;
  pipe_fills : float;  (** wavefront fill events (batched sweeps stream) *)
  stall_flops : float;  (** per-rank flops-equivalent of fill stalls *)
}

let zero_census =
  {
    flops_block = 0.;
    flops_pipeline = 0.;
    flops_serial = 0.;
    exchanges = 0.;
    exchange_msgs = 0.;
    exchange_bytes = 0.;
    pipe_msgs = 0.;
    pipe_bytes = 0.;
    reductions = 0.;
    wave_stages = 1;
    pipe_fills = 0.;
    stall_flops = 0.;
  }

let add_census a b =
  {
    flops_block = a.flops_block +. b.flops_block;
    flops_pipeline = a.flops_pipeline +. b.flops_pipeline;
    flops_serial = a.flops_serial +. b.flops_serial;
    exchanges = a.exchanges +. b.exchanges;
    exchange_msgs = a.exchange_msgs +. b.exchange_msgs;
    exchange_bytes = a.exchange_bytes +. b.exchange_bytes;
    pipe_msgs = a.pipe_msgs +. b.pipe_msgs;
    pipe_bytes = a.pipe_bytes +. b.pipe_bytes;
    reductions = a.reductions +. b.reductions;
    wave_stages = max a.wave_stages b.wave_stages;
    pipe_fills = a.pipe_fills +. b.pipe_fills;
    stall_flops = a.stall_flops +. b.stall_flops;
  }

let total_flops c = c.flops_block +. c.flops_pipeline +. c.flops_serial

(* static flop estimate of an expression *)
let rec expr_flops (e : Ast.expr) =
  match e with
  | Ast.Const_int _ | Ast.Const_real _ | Ast.Const_bool _ | Ast.Const_str _
  | Ast.Var _ ->
      0.
  | Ast.Ref (name, args) ->
      let base = if Ast.is_intrinsic name then 1.0 else 0.0 in
      List.fold_left (fun acc a -> acc +. expr_flops a) base args
  | Ast.Unop (_, a) -> 1.0 +. expr_flops a
  | Ast.Binop ((Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Pow), a, b) ->
      1.0 +. expr_flops a +. expr_flops b
  | Ast.Binop (_, a, b) -> 0.5 +. expr_flops a +. expr_flops b
  | Ast.Local_lo (_, a) | Ast.Local_hi (_, a) -> expr_flops a

let rec strip_local (e : Ast.expr) =
  match e with
  | Ast.Local_lo (_, a) | Ast.Local_hi (_, a) -> strip_local a
  | e -> e

(* local extent of a grid dimension on an (interior) rank *)
let local_extent topo g =
  let grid = P.Topology.grid topo and parts = P.Topology.parts topo in
  (grid.(g) + parts.(g) - 1) / parts.(g)

(* points of one halo plane of an array along [dim], per unit depth *)
let plane_points gi env (u : Ast.program_unit) topo name ~dim =
  match A.Grid_info.find_status gi name with
  | None -> 0
  | Some sa -> (
      match
        List.find_opt (fun d -> d.Ast.d_name = name) u.Ast.u_decls
      with
      | None -> 0
      | Some decl ->
          List.mapi (fun k dims -> (k, dims)) decl.Ast.d_dims
          |> List.fold_left
               (fun acc (k, (lo, hi)) ->
                 let ext =
                   match (A.Env.eval_int env lo, A.Env.eval_int env hi) with
                   | Some l, Some h -> h - l + 1
                   | _ -> 1
                 in
                 match if k < sa.A.Grid_info.sa_rank then sa.A.Grid_info.sa_dims.(k) else None with
                 | Some g when g = dim -> acc
                 | Some g -> acc * local_extent topo g
                 | None -> acc * ext)
               1)

(* resident status-array bytes for a rank owning [points_per_rank] grid
   points (packed dimensions counted via their extents is approximated by
   one plane per array — we only know grid points here, so scale by the
   number of status arrays) *)
let working_set_bytes ~gi ~points_per_rank =
  float_of_int (List.length gi.A.Grid_info.status)
  *. float_of_int points_per_rank *. 8.0

let memory_slowdown m ws =
  let knee capacity = if ws <= capacity then 0.0 else 1.0 -. (capacity /. ws) in
  1.0 +. (m.cache_penalty *. knee m.cache_bytes)
  +. (m.mem_penalty *. knee m.mem_bytes)

let census ~gi ~topo (u : Ast.program_unit) =
  let env = A.Env.of_unit u in
  let parts = P.Topology.parts topo in
  let acc = ref zero_census in
  let pipelined_dims = ref [] in
  (* [batch] is the streaming factor: consecutive sweeps of a pipelined
     loop sitting alone in an enclosing sequential loop fill the wavefront
     once per batch, not once per sweep *)
  let rec walk_block ~m ~cls ~batch block =
    (* a block consisting solely of one pipelined head (plus its pipeline
       recv/send) streams: the enclosing DO trip is the batch *)
    List.iter (walk_stmt ~m ~cls ~batch) block
  and walk_stmt ~m ~cls ~batch st =
    let leaf_flops f =
      match cls with
      | `Pipeline -> acc := { !acc with flops_pipeline = !acc.flops_pipeline +. (m *. f) }
      | `Block -> acc := { !acc with flops_block = !acc.flops_block +. (m *. f) }
      | `Serial -> acc := { !acc with flops_serial = !acc.flops_serial +. (m *. f) }
    in
    match st.Ast.s_kind with
    | Ast.Assign (lhs, rhs) -> leaf_flops (expr_flops lhs +. expr_flops rhs)
    | Ast.Goto _ | Ast.Continue | Ast.Return | Ast.Stop -> ()
    | Ast.Call (_, args) ->
        leaf_flops (List.fold_left (fun a e -> a +. expr_flops e) 0. args)
    | Ast.Read _ -> ()
    | Ast.Write es ->
        leaf_flops (List.fold_left (fun a e -> a +. expr_flops e) 0. es)
    | Ast.If (branches, els) ->
        List.iter (fun (c, _) -> leaf_flops (expr_flops c)) branches;
        (* take the flop-heaviest branch *)
        let saved = !acc in
        let weights =
          List.map
            (fun b ->
              acc := zero_census;
              walk_block ~m ~cls ~batch b;
              let w = !acc in
              w)
            (List.map snd branches @ Option.to_list els)
        in
        acc := saved;
        let heaviest =
          List.fold_left
            (fun best w ->
              match best with
              | None -> Some w
              | Some b -> if total_flops w > total_flops b then Some w else Some b)
            None weights
        in
        Option.iter (fun w -> acc := add_census !acc w) heaviest
    | Ast.Do d ->
        let trip =
          let lo = A.Env.eval_int env (strip_local d.Ast.do_lo) in
          let hi = A.Env.eval_int env (strip_local d.Ast.do_hi) in
          let step =
            match d.Ast.do_step with
            | None -> Some 1
            | Some e -> A.Env.eval_int env (strip_local e)
          in
          match (lo, hi, step) with
          | Some l, Some h, Some s when s <> 0 ->
              max 0 (((h - l) / s) + 1)
          | _ -> 1
        in
        let is_solo_pipeline_body body =
          let rec only_pipe = function
            | [] -> false
            | stmts ->
                List.for_all
                  (fun (st : Ast.stmt) ->
                    match st.Ast.s_kind with
                    | Ast.Pipeline_recv _ | Ast.Pipeline_send _ -> true
                    | Ast.Do { do_sched = Ast.Sched_pipeline _; _ } -> true
                    | Ast.Do { do_body; _ } -> only_pipe do_body
                    | _ -> false)
                  stmts
          in
          only_pipe body
        in
        (match d.Ast.do_sched with
        | Ast.Sched_seq ->
            let batch' =
              if is_solo_pipeline_body d.Ast.do_body then
                batch *. float_of_int (max 1 trip)
              else 1.0
            in
            walk_block ~m:(m *. float_of_int trip) ~cls ~batch:batch'
              d.Ast.do_body
        | Ast.Sched_block g ->
            let local = min trip ((trip + parts.(g) - 1) / parts.(g)) in
            let cls = if cls = `Pipeline then cls else `Block in
            walk_block ~m:(m *. float_of_int local) ~cls ~batch:1.0
              d.Ast.do_body
        | Ast.Sched_pipeline { dim; _ } ->
            if not (List.mem dim !pipelined_dims) then
              pipelined_dims := dim :: !pipelined_dims;
            let local = min trip ((trip + parts.(dim) - 1) / parts.(dim)) in
            let entering = cls <> `Pipeline in
            (if entering then begin
               (* measure the per-entry flops of this head to charge the
                  wavefront fill stalls *)
               let saved = !acc in
               acc := zero_census;
               walk_block ~m:(float_of_int local) ~cls:`Pipeline ~batch:1.0
                 d.Ast.do_body;
               let entry = !acc in
               acc := saved;
               let entry_flops = total_flops entry in
               let stages_here =
                 List.fold_left
                   (fun sacc dd -> sacc + (parts.(dd) - 1))
                   0 !pipelined_dims
               in
               let fills = m /. Float.max 1.0 batch in
               acc :=
                 add_census !acc
                   { entry with
                     flops_pipeline = total_flops entry *. m;
                     flops_block = 0.;
                     flops_serial = 0.;
                     exchanges = entry.exchanges *. m;
                     exchange_msgs = entry.exchange_msgs *. m;
                     exchange_bytes = entry.exchange_bytes *. m;
                     pipe_msgs = entry.pipe_msgs *. m;
                     pipe_bytes = entry.pipe_bytes *. m;
                     reductions = entry.reductions *. m;
                     pipe_fills = fills;
                     stall_flops =
                       fills *. float_of_int stages_here *. entry_flops;
                   }
             end
             else
               walk_block ~m:(m *. float_of_int local) ~cls:`Pipeline
                 ~batch:1.0 d.Ast.do_body))
    | Ast.Comm c -> (
        match c with
        | Ast.Exchange ts ->
            let msgs, bytes =
              List.fold_left
                (fun (msgs, bytes) (t : Ast.transfer) ->
                  let pp =
                    plane_points gi env u topo t.Ast.xfer_array
                      ~dim:t.Ast.xfer_dim
                  in
                  (* a directional transfer is sent by every rank that has
                     a neighbor on that side: with 2 parts each rank sends
                     in one direction only; with >= 3 parts the worst-case
                     interior rank sends both *)
                  let factor =
                    match parts.(t.Ast.xfer_dim) with
                    | 1 -> 0.
                    | 2 -> 0.5
                    | _ -> 1.
                  in
                  ( msgs +. factor,
                    bytes
                    +. (factor *. float_of_int (pp * t.Ast.xfer_depth * 8)) ))
                (0., 0.) ts
            in
            acc :=
              { !acc with
                exchanges = !acc.exchanges +. m;
                exchange_msgs = !acc.exchange_msgs +. (m *. msgs);
                exchange_bytes = !acc.exchange_bytes +. (m *. bytes) }
        | Ast.Allreduce_max _ | Ast.Allreduce_min _ | Ast.Allreduce_sum _ ->
            acc := { !acc with reductions = !acc.reductions +. m }
        | Ast.Broadcast _ ->
            acc := { !acc with reductions = !acc.reductions +. m }
        | Ast.Allgather arrays ->
            (* every rank exchanges owned regions with every other rank:
               per rank, (P-1) sends of its own region and the full array
               volume received *)
            let nranks = P.Topology.nranks topo in
            let bytes =
              List.fold_left
                (fun b name ->
                  let plane = plane_points gi env u topo name ~dim:(-1) in
                  (* plane_points with dim -1 multiplies every dimension's
                     local extent: the rank's owned region *)
                  b +. float_of_int (plane * 8 * (nranks - 1)))
                0. arrays
            in
            acc :=
              { !acc with
                exchange_msgs =
                  !acc.exchange_msgs +. (m *. float_of_int (2 * (nranks - 1)));
                exchange_bytes = !acc.exchange_bytes +. (m *. bytes *. 2.) }
        | Ast.Barrier ->
            acc := { !acc with reductions = !acc.reductions +. m })
    | Ast.Pipeline_recv { arrays; dim; _ } | Ast.Pipeline_send { arrays; dim; _ }
      ->
        let bytes =
          List.fold_left
            (fun b (name, depth) ->
              b
              +. float_of_int (plane_points gi env u topo name ~dim * depth * 8))
            0. arrays
        in
        (* count the send side only (one message per hop) *)
        (match st.Ast.s_kind with
        | Ast.Pipeline_send _ ->
            acc :=
              { !acc with
                pipe_msgs = !acc.pipe_msgs +. m;
                pipe_bytes = !acc.pipe_bytes +. bytes *. m }
        | _ -> ())
  in
  walk_block ~m:1.0 ~cls:`Serial ~batch:1.0 u.Ast.u_body;
  let stages =
    List.fold_left (fun s d -> s + (parts.(d) - 1)) 1 !pipelined_dims
  in
  { !acc with wave_stages = stages }

type prediction = {
  time : float;
  compute_time : float;
  pipeline_time : float;
  serial_time : float;
  comm_time : float;
  reduce_time : float;
  working_set : float;
  slowdown : float;
}

let points_per_rank topo =
  let grid = P.Topology.grid topo in
  let acc = ref 1 in
  Array.iteri (fun g _ -> acc := !acc * local_extent topo g) grid;
  !acc

let predict machine ~gi ~topo c =
  let nranks = P.Topology.nranks topo in
  let ws = working_set_bytes ~gi ~points_per_rank:(points_per_rank topo) in
  let s = memory_slowdown machine ws in
  let per_flop = s /. machine.flop_rate in
  let compute_time = c.flops_block *. per_flop in
  let pipeline_time = (c.flops_pipeline +. c.stall_flops) *. per_flop in
  let serial_time = c.flops_serial *. per_flop in
  let msg_cost bytes_per_msg =
    machine.net.N.latency +. machine.net.N.send_overhead
    +. machine.net.N.recv_overhead
    +. (bytes_per_msg /. machine.net.N.bandwidth)
  in
  let p2p_time =
    (if c.exchange_msgs > 0. then
       c.exchange_msgs *. msg_cost (c.exchange_bytes /. c.exchange_msgs)
     else 0.)
    +.
    (* per-rank pipeline sends, plus the critical-path hops of each
       wavefront fill *)
    (if c.pipe_msgs > 0. then
       let per_msg = msg_cost (c.pipe_bytes /. c.pipe_msgs) in
       (c.pipe_msgs *. per_msg)
       +. (c.pipe_fills *. float_of_int (max 0 (c.wave_stages - 1))
          *. per_msg)
     else 0.)
  in
  let stages_log =
    ceil (Float.log2 (float_of_int (max 2 nranks)))
  in
  let reduce_time =
    c.reductions *. 2.0 *. stages_log *. machine.net.N.latency
  in
  (* mirror-image programs cannot overlap compute and communication *)
  let overlap = if c.wave_stages > 1 then 0.0 else machine.overlap in
  let hidden = Float.min (p2p_time *. overlap) compute_time in
  let comm_time = p2p_time -. hidden in
  {
    time = compute_time +. pipeline_time +. serial_time +. comm_time +. reduce_time;
    compute_time;
    pipeline_time;
    serial_time;
    comm_time;
    reduce_time;
    working_set = ws;
    slowdown = s;
  }

let predict_parallel machine ~gi ~topo u =
  predict machine ~gi ~topo (census ~gi ~topo u)

let predict_sequential machine ~gi u =
  let grid = gi.A.Grid_info.grid in
  let topo =
    P.Topology.create ~grid ~parts:(Array.make (Array.length grid) 1)
  in
  predict machine ~gi ~topo (census ~gi ~topo u)

(* ------------------------------------------------------------------ *)
(* Calibration from measured wall clock                                *)
(* ------------------------------------------------------------------ *)

type calibration = {
  cal_flop_time : float;
  cal_latency : float;
  cal_bandwidth : float;
  cal_compute_r2 : float;
  cal_comm_r2 : float;
}

let r2 actual predicted =
  let n = List.length actual in
  if n = 0 then 0.0
  else
    let mean = List.fold_left ( +. ) 0.0 actual /. float_of_int n in
    let ss_tot =
      List.fold_left (fun a y -> a +. ((y -. mean) ** 2.0)) 0.0 actual
    in
    let ss_res =
      List.fold_left2
        (fun a y p -> a +. ((y -. p) ** 2.0))
        0.0 actual predicted
    in
    if ss_tot <= 0.0 then if ss_res <= 0.0 then 1.0 else 0.0
    else 1.0 -. (ss_res /. ss_tot)

let calibrate ~compute ~comm =
  (* per-flop cost: least squares through the origin, seconds = ft * flops *)
  let sxx, sxy =
    List.fold_left
      (fun (sxx, sxy) (f, s) -> (sxx +. (f *. f), sxy +. (f *. s)))
      (0.0, 0.0) compute
  in
  let flop_time = if sxx > 0.0 then sxy /. sxx else 0.0 in
  (* network: ordinary linear least squares, seconds = latency + bytes/bw.
     Neither cost may be negative: when the fit wants one below zero,
     that term is fixed at zero and the other refitted alone (a flat line
     through the mean, or a line through the origin), so the prediction
     stays the least-squares one for the terms that remain. *)
  let pts = List.filter (fun (b, _) -> b > 0) comm in
  let n = float_of_int (List.length pts) in
  let latency, slope =
    if List.length pts < 2 then (0.0, 0.0)
    else
      let sx, sy, sxx, sxy =
        List.fold_left
          (fun (sx, sy, sxx, sxy) (b, s) ->
            let x = float_of_int b in
            (sx +. x, sy +. s, sxx +. (x *. x), sxy +. (x *. s)))
          (0.0, 0.0, 0.0, 0.0) pts
      in
      let det = (n *. sxx) -. (sx *. sx) in
      let slope = if det <= 0.0 then 0.0 else ((n *. sxy) -. (sx *. sy)) /. det in
      if slope <= 0.0 then (sy /. n, 0.0)
      else
        let icept = (sy -. (slope *. sx)) /. n in
        if icept >= 0.0 then (icept, slope) else (0.0, Float.max 0.0 (sxy /. sxx))
  in
  let bandwidth = if slope > 0.0 then 1.0 /. slope else Float.infinity in
  let cal_compute_r2 =
    r2 (List.map snd compute)
      (List.map (fun (f, _) -> flop_time *. f) compute)
  in
  let cal_comm_r2 =
    r2 (List.map snd pts)
      (List.map (fun (b, _) -> latency +. (slope *. float_of_int b)) pts)
  in
  {
    cal_flop_time = flop_time;
    cal_latency = latency;
    cal_bandwidth = bandwidth;
    cal_compute_r2;
    cal_comm_r2;
  }
