open Autocfd_fortran
open Autocfd_mpsim
module GI = Autocfd_analysis.Grid_info
module Topology = Autocfd_partition.Topology
module Trace = Autocfd_obs.Trace

type recovery = {
  rc_every : int;
  rc_max_restarts : int;
  rc_bandwidth : float;
}

let default_recovery =
  { rc_every = 8; rc_max_restarts = 3; rc_bandwidth = 400e6 }

type config = {
  gi : GI.t;
  topo : Topology.t;
  net : Netmodel.t;
  flop_time : float;
  input : float list;
  tracer : Trace.t option;
  faults : Fault.plan option;
  recovery : recovery option;
}

type resilience = {
  rs_restarts : int;
  rs_checkpoints : int;
  rs_restores : int;
  rs_retransmits : int;
  rs_dup_suppressed : int;
  rs_checksum_failures : int;
}

let no_resilience =
  {
    rs_restarts = 0;
    rs_checkpoints = 0;
    rs_restores = 0;
    rs_retransmits = 0;
    rs_dup_suppressed = 0;
    rs_checksum_failures = 0;
  }

type domain_stats = {
  ds_wall : float;
  ds_compute : float array;
  ds_barrier_wait : float array;
  ds_barrier_calls : int;
  ds_flops : float array;
  ds_comm_samples : (int * float) list;
}

type result = {
  stats : Sim.stats;
  output : string list;
  gathered : (string * Value.arr) list;
  scalars : (string * Value.scalar) list;
  flops_per_rank : float array;
  resilience : resilience;
  domains : domain_stats option;
}

(* One rank's coordinated checkpoint, taken outside the simulation when
   the rank passes a multiple-of-k sync-point visit.  Visits are counted
   identically on every rank (the SPMD unit's communication hooks fire in
   the same program order everywhere), so equal [ck_visits] across ranks
   is a consistent global cut — provided no pipeline stream is mid-flight,
   which the executor checks before snapshotting. *)
type snapshot = {
  ck_visits : int;
  ck_scalars : (string * Value.scalar) list;
  ck_arrays : (string * float array) list;
  ck_output : string list;  (* cumulative WRITE lines; rank 0 only *)
}

let snapshot_bytes s =
  8
  * (List.length s.ck_scalars
    + List.fold_left (fun acc (_, a) -> acc + Array.length a) 0 s.ck_arrays)

type engine = Fused | Domains

let tag_exchange = 3
let tag_pipe = 5
let tag_gather = 7

(* ------------------------------------------------------------------ *)
(* Sync-point table: every communication statement of the SPMD unit,   *)
(* numbered in program order and labelled for tracing                  *)
(* ------------------------------------------------------------------ *)

type sync_info = {
  si_id : int;
  si_label : string;
  si_loop : string option;  (* enclosing DO variable *)
}

let dir_str = function Ast.Dplus -> "+" | Ast.Dminus -> "-"

let describe_comm = function
  | Ast.Exchange ts ->
      "halo "
      ^ String.concat " "
          (List.map
             (fun (t : Ast.transfer) ->
               Printf.sprintf "%s(d%d%s,%d)" t.Ast.xfer_array t.Ast.xfer_dim
                 (dir_str t.Ast.xfer_dir) t.Ast.xfer_depth)
             ts)
  | Ast.Allreduce_max v -> "allreduce max " ^ v
  | Ast.Allreduce_min v -> "allreduce min " ^ v
  | Ast.Allreduce_sum v -> "allreduce sum " ^ v
  | Ast.Broadcast vars -> "bcast " ^ String.concat "," vars
  | Ast.Allgather arrays -> "allgather " ^ String.concat "," arrays
  | Ast.Barrier -> "barrier"

(* one rank's profile summary of a nest as a trace event; loop-fission
   fragments are named "L<line> do <vars> #<frag>/<nfrags>" so all
   fragments of one source nest share a line and a name prefix *)
let kernel_event (k : Compile.kernel_stat) =
  let frag, nfrags =
    match k.Compile.ks_frag with
    | Some f -> (f.Ast.fi_frag, f.Ast.fi_nfrags)
    | None -> (0, 0)
  in
  let name =
    Printf.sprintf "L%d do %s%s" k.Compile.ks_line
      (String.concat "," k.Compile.ks_vars)
      (if nfrags = 0 then "" else Printf.sprintf " #%d/%d" frag nfrags)
  in
  Trace.Kernel
    {
      name;
      line = k.Compile.ks_line;
      fused = k.Compile.ks_fused;
      frag;
      nfrags;
      calls = k.Compile.ks_calls;
      flops = k.Compile.ks_flops;
      bytes = k.Compile.ks_bytes;
    }

let sync_points (u : Ast.program_unit) =
  let tbl = Hashtbl.create 32 in
  let next = ref 0 in
  let add sid label loop =
    Hashtbl.replace tbl sid
      { si_id = !next; si_label = label; si_loop = loop };
    incr next
  in
  let rec walk loop stmts =
    List.iter
      (fun (st : Ast.stmt) ->
        match st.Ast.s_kind with
        | Ast.Do d -> walk (Some d.Ast.do_var) d.Ast.do_body
        | Ast.If (branches, els) ->
            List.iter (fun (_, b) -> walk loop b) branches;
            Option.iter (walk loop) els
        | Ast.Comm c -> add st.Ast.s_id (describe_comm c) loop
        | Ast.Pipeline_recv { dim; dir; arrays } ->
            add st.Ast.s_id
              (Printf.sprintf "pipe recv d%d%s %s" dim (dir_str dir)
                 (String.concat "," (List.map fst arrays)))
              loop
        | Ast.Pipeline_send { dim; dir; arrays } ->
            add st.Ast.s_id
              (Printf.sprintf "pipe send d%d%s %s" dim (dir_str dir)
                 (String.concat "," (List.map fst arrays)))
              loop
        | _ -> ())
      stmts
  in
  walk None u.Ast.u_body;
  tbl

(* The one owned-box rule: the box of status array [name] that rank
   [owner] holds, with packed dimensions whole and each grid dimension
   [g] shaped from the owner's block range by [shape g], both clipped to
   the array's bounds.  Exchange and pipeline planes, allgather regions
   and the final gather all read it. *)
let owned_box gi topo ~owner (arr : Value.arr) name shape =
  match GI.find_status gi name with
  | None -> invalid_arg ("Spmd: communication of non-status array " ^ name)
  | Some sa ->
      let b = Topology.block topo owner in
      Array.init (Value.rank arr) (fun k ->
          let alo, ahi = arr.Value.bounds.(k) in
          match sa.GI.sa_dims.(k) with
          | None -> (alo, ahi)
          | Some g ->
              let lo, hi =
                shape g
                  ( b.Autocfd_partition.Block.lo.(g),
                    b.Autocfd_partition.Block.hi.(g) )
              in
              (max alo lo, min ahi hi))

let whole_block _ range = range

(* a shaping for {!owned_box}: the [depth] boundary planes on the [dir]
   side of grid dimension [dim]; each lower grid dimension [g] extended
   by [ext g] so that diagonal (corner) stencil points are carried
   (sequenced exchange) *)
let boundary_planes ~dim ~dir ~depth ~ext g (lo, hi) =
  if g = dim then
    match dir with
    | Ast.Dplus -> (max lo (hi - depth + 1), hi)
    | Ast.Dminus -> (lo, min hi (lo + depth - 1))
  else
    let e = if g < dim then ext g else 0 in
    (lo - e, hi + e)

(* ------------------------------------------------------------------ *)
(* Message plans                                                       *)
(* ------------------------------------------------------------------ *)

(* Everything a sync point's boxes depend on — grid info, topology, array
   bounds, the statement's transfer list — is fixed for the whole run, so
   each rank resolves a message's box into contiguous runs at the sync
   point's first visit, and every later visit copies runs. *)

(* A box of one array as contiguous runs in column-major order: run [k]
   starts at offset [run_starts.(k)], and every run is [run_len]
   elements long, the box's extent in dimension 0.  An empty box has no
   runs. *)
type runs = { run_len : int; run_starts : int array }

let runs_total r = r.run_len * Array.length r.run_starts

let box_runs (arr : Value.arr) box =
  let n = Array.length box in
  if n = 0 || Array.exists (fun (lo, hi) -> lo > hi) box then
    { run_len = 0; run_starts = [||] }
  else begin
    (* both corners in bounds put the whole box in bounds *)
    let first = Value.linear_index arr (Array.map fst box) in
    ignore (Value.linear_index arr (Array.map snd box) : int);
    let extent d = snd box.(d) - fst box.(d) + 1 in
    let count = ref 1 in
    for d = 1 to n - 1 do
      count := !count * extent d
    done;
    let starts = Array.make !count 0 and k = ref 0 in
    let rec walk d off =
      if d = 0 then begin
        starts.(!k) <- off;
        incr k
      end
      else
        let stride = arr.Value.strides.(d) in
        for i = 0 to extent d - 1 do
          walk (d - 1) (off + (i * stride))
        done
    in
    walk (n - 1) first;
    { run_len = extent 0; run_starts = starts }
  end

(* runs shorter than this are copied element by element: Array.blit's
   call costs more than it saves on them *)
let blit_threshold = 4

(* copy each run [k] from [src] to [dst]; a side that is [packed] holds
   run [k] at [k * run_len], the other at its start offset *)
let copy_runs r ~(src : float array) ~src_packed ~(dst : float array)
    ~dst_packed =
  let len = r.run_len and starts = r.run_starts in
  for k = 0 to Array.length starts - 1 do
    let s = if src_packed then k * len else starts.(k) in
    let d = if dst_packed then k * len else starts.(k) in
    if len < blit_threshold then
      for i = 0 to len - 1 do
        dst.(d + i) <- src.(s + i)
      done
    else Array.blit src s dst d len
  done

let blit_runs r ~src ~dst =
  copy_runs r ~src ~src_packed:false ~dst ~dst_packed:false

(* A pack/unpack plan: the box's runs and a reusable payload buffer, in
   which the box's elements lie in column-major order.  Reusing [pp_buf]
   across visits is safe because every transport's send copies its
   payload. *)
type pack_plan = { pp_runs : runs; pp_buf : float array }

let plan_of arr box =
  let r = box_runs arr box in
  { pp_runs = r; pp_buf = Array.make (runs_total r) 0.0 }

let pack p (data : float array) =
  copy_runs p.pp_runs ~src:data ~src_packed:false ~dst:p.pp_buf
    ~dst_packed:true;
  p.pp_buf

let unpack p (data : float array) payload =
  copy_runs p.pp_runs ~src:payload ~src_packed:true ~dst:data
    ~dst_packed:false

type xfer_plan = {
  xp_array : string;
  xp_dim : int;  (* grid dimension of the transfer, for phased blits *)
  xp_send : (int * pack_plan) option;  (* dest rank, pack plan *)
  xp_recv : (int * pack_plan) option;  (* src rank, unpack plan *)
}

type plan =
  | P_exchange of xfer_plan list
  | P_pipe of (int * (string * pack_plan) list) option  (* peer, per array *)
  | P_allgather of (string * pack_plan * pack_plan array) list
      (* per array: my pack plan, then per-peer unpack plans (index =
         peer rank; my own entry unused) *)

(* ------------------------------------------------------------------ *)
(* Engine-generic execution                                            *)
(* ------------------------------------------------------------------ *)

(* The per-rank body is written once against this interface and wired to
   either the tree-walking machine or the compiled engine; both raise
   [Machine.Runtime_error] on dynamic errors. *)

type 'm iface = {
  i_spawn : 'm Machine.hooks -> float list -> 'm;
  i_run : 'm -> unit;
  i_flops : 'm -> float;
  i_array : 'm -> string -> Value.arr;
  i_scalar : 'm -> string -> Value.scalar;
  i_set_scalar : 'm -> string -> Value.scalar -> unit;
  i_scalar_bindings : 'm -> (string * Value.scalar) list;
  i_array_names : 'm -> string list;
  i_output : 'm -> string list;
  i_seq : 'm Machine.hooks;  (* rank 0's actual READ source and WRITE sink *)
  i_kernels : 'm -> Compile.kernel_stat list;
      (* per-nest execution profile; [] on engines without one *)
}

(* keep at most this many checkpoint generations per rank: after a crash,
   surviving ranks may have raced ahead past further sync points before
   stalling, so the common restore point can lie a little behind their
   newest snapshot *)
let snapshot_history = 3

(* ------------------------------------------------------------------ *)
(* Plan construction (engine-independent)                              *)
(* ------------------------------------------------------------------ *)

let opposite_dir = function Ast.Dplus -> Ast.Dminus | Ast.Dminus -> Ast.Dplus

let topo_neighbor topo ~rank dim dir =
  let d =
    match dir with Ast.Dplus -> Topology.Plus | Ast.Dminus -> Topology.Minus
  in
  Topology.neighbor topo ~rank ~dim ~dir:d

(* [array] looks an array up in the planning rank's own state *)
let build_exchange_plan ~gi ~topo ~rank array (transfers : Ast.transfer list)
    =
  let transfers =
    List.sort
      (fun (a : Ast.transfer) b ->
        compare
          (a.Ast.xfer_dim, a.Ast.xfer_array, a.Ast.xfer_dir)
          (b.Ast.xfer_dim, b.Ast.xfer_array, b.Ast.xfer_dir))
      transfers
  in
  let ext_of_dim g =
    List.fold_left
      (fun acc (t : Ast.transfer) ->
        if t.Ast.xfer_dim = g then max acc t.Ast.xfer_depth else acc)
      0 transfers
  in
  P_exchange
    (List.map
       (fun (xfer : Ast.transfer) ->
         let name = xfer.Ast.xfer_array and dim = xfer.Ast.xfer_dim in
         let dir = xfer.Ast.xfer_dir and arr = array name in
         let planes owner =
           plan_of arr
             (owned_box gi topo ~owner arr name
                (boundary_planes ~dim ~dir ~depth:xfer.Ast.xfer_depth
                   ~ext:ext_of_dim))
         in
         let neighbor d = topo_neighbor topo ~rank dim d in
         (* my planes go towards [dir]; the opposite neighbour's come in *)
         {
           xp_array = name;
           xp_dim = dim;
           xp_send =
             Option.map (fun dest -> (dest, planes rank)) (neighbor dir);
           xp_recv =
             Option.map
               (fun src -> (src, planes src))
               (neighbor (opposite_dir dir));
         })
       transfers)

let build_pipe_plan ~gi ~topo ~rank ~recv ~dim ~dir array arrays =
  let peer_dir = if recv then opposite_dir dir else dir in
  P_pipe
    (Option.map
       (fun peer ->
         let owner = if recv then peer else rank in
         ( peer,
           List.map
             (fun (name, depth) ->
               let arr = array name in
               ( name,
                 plan_of arr
                   (owned_box gi topo ~owner arr name
                      (boundary_planes ~dim ~dir ~depth ~ext:(fun _ -> 0))) ))
             arrays ))
       (topo_neighbor topo ~rank dim peer_dir))

let build_allgather_plan ~gi ~topo ~rank ~nranks array arrays =
  P_allgather
    (List.map
       (fun name ->
         let arr = array name in
         let owned owner =
           plan_of arr (owned_box gi topo ~owner arr name whole_block)
         in
         let peers =
           Array.init nranks (fun peer ->
               if peer = rank then plan_of arr [||] else owned peer)
         in
         (name, owned rank, peers))
       arrays)

(* assemble the final global state from the per-rank machines: status
   arrays stitched from their owners' blocks, scalars from rank 0 *)
let gather_results :
    'm.
    'm iface ->
    gi:GI.t ->
    topo:Topology.t ->
    nranks:int ->
    machine:(int -> 'm) ->
    Ast.program_unit ->
    (string * Value.arr) list * (string * Value.scalar) list =
 fun iface ~gi ~topo ~nranks ~machine u ->
  let m0 = machine 0 in
  (* no machine runs after the gather: rank 0's arrays are taken as they
     are, each status array's rank-0 box already in place *)
  let gathered =
    List.map
      (fun name ->
        let out = iface.i_array m0 name in
        if GI.find_status gi name <> None then
          for r = 1 to nranks - 1 do
            let src = iface.i_array (machine r) name in
            blit_runs
              (box_runs src (owned_box gi topo ~owner:r src name whole_block))
              ~src:src.Value.data ~dst:out.Value.data
          done;
        (name, out))
      (iface.i_array_names m0)
  in
  let scalars =
    List.filter_map
      (fun u_decl ->
        if u_decl.Ast.d_dims = [] then
          match iface.i_scalar m0 u_decl.Ast.d_name with
          | v -> Some (u_decl.Ast.d_name, v)
          | exception Machine.Runtime_error _ -> None
        else None)
      u.Ast.u_decls
  in
  (gathered, scalars)

(* ------------------------------------------------------------------ *)
(* Per-rank hooks, written once over a transport                       *)
(* ------------------------------------------------------------------ *)

(* which hook a transport's [t_guard] wraps *)
type hook = H_comm of Ast.comm | H_pipe_recv | H_pipe_send | H_read

(* What the simulated cluster and real domains do differently.  Every
   other part of a rank's hooks (plan lookup, the collective dispatch,
   pipeline messages, the READ broadcast, sync-point spans) is
   {!rank_hooks}'s. *)
type 'm transport = {
  t_send : dest:int -> tag:int -> float array -> unit;
  t_recv : src:int -> tag:int -> float array;
  t_allreduce : [ `Max | `Min | `Sum ] -> float -> float;
  t_bcast : float array -> float array;  (* rooted at rank 0 *)
  t_barrier : unit -> unit;
  t_exchange : (string -> float array) -> xfer_plan list -> unit;
  t_allgather :
    (string -> float array) -> (string * pack_plan * pack_plan array) list
    -> unit;
      (* both take the rank's own array data by name *)
  t_guard : 'a. 'm -> hook -> (unit -> 'a) -> 'a option;
      (* runs one hook's operation inside the engine's time accounting;
         [None] when the operation is skipped (simulator restart replay) *)
  t_live : unit -> bool;  (* false while replaying: WRITE is suppressed *)
  t_span : (sync_info -> int option -> (unit -> unit) -> unit) option;
      (* records one sync-point span around its operation when tracing *)
}

let unpack_checked what p data payload =
  if Array.length payload <> Array.length p.pp_buf then
    failwith ("Spmd: " ^ what ^ " size mismatch");
  unpack p data payload

(* halo exchange as messages: send my boundary planes towards each
   transfer's direction, then receive the matching planes from the
   opposite neighbour *)
let exchange_by_messages ~send ~recv data_of xps =
  List.iter
    (fun xp ->
      let data = data_of xp.xp_array in
      (match xp.xp_send with
      | Some (dest, p) -> send ~dest ~tag:tag_exchange (pack p data)
      | None -> ());
      match xp.xp_recv with
      | Some (src, p) ->
          unpack_checked "halo exchange" p data
            (recv ~src ~tag:tag_exchange)
      | None -> ())
    xps

(* allgather as messages: every rank sends its owned region to every
   other rank, so each ends up holding the full fresh array *)
let allgather_by_messages ~send ~recv ~rank ~nranks data_of per_array =
  List.iter
    (fun (name, mine, peers) ->
      let data = data_of name in
      let payload = pack mine data in
      for peer = 0 to nranks - 1 do
        if peer <> rank then send ~dest:peer ~tag:tag_gather payload
      done;
      for peer = 0 to nranks - 1 do
        if peer <> rank then
          unpack_checked "allgather" peers.(peer) data
            (recv ~src:peer ~tag:tag_gather)
      done)
    per_array

let rank_hooks :
    'm.
    'm iface ->
    'm transport ->
    config ->
    sync_tbl:(int, sync_info) Hashtbl.t ->
    rank:int ->
    'm Machine.hooks =
 fun iface t config ~sync_tbl ~rank ->
  let gi = config.gi and topo = config.topo in
  let nranks = Topology.nranks topo in
  let block = Topology.block topo rank in
  (* each sync point's plan, built at its first visit in this run *)
  let plans : (int, plan) Hashtbl.t = Hashtbl.create 16 in
  let plan sid build =
    match Hashtbl.find_opt plans sid with
    | Some p -> p
    | None ->
        let p = build () in
        Hashtbl.replace plans sid p;
        p
  in
  let data m name = (iface.i_array m name).Value.data in
  (* run a hook body inside its sync-point span, tagged with the
     enclosing loop variable and iteration *)
  let traced m sid f =
    match t.t_span with
    | None -> f ()
    | Some span -> (
        match Hashtbl.find_opt sync_tbl sid with
        | None -> f ()
        | Some si ->
            let iter =
              match si.si_loop with
              | None -> None
              | Some v -> (
                  match iface.i_scalar m v with
                  | Value.Int i -> Some i
                  | Value.Real x -> Some (int_of_float x)
                  | Value.Bool _ | Value.Str _ -> None
                  | exception Machine.Runtime_error _ -> None)
            in
            span si iter f)
  in
  let reduce m op v =
    let x = Value.to_float (iface.i_scalar m v) in
    iface.i_set_scalar m v (Value.Real (t.t_allreduce op x))
  in
  let comm m sid = function
    | Ast.Exchange ts -> (
        match
          plan sid (fun () ->
              build_exchange_plan ~gi ~topo ~rank (iface.i_array m) ts)
        with
        | P_exchange xps -> t.t_exchange (data m) xps
        | _ -> assert false)
    | Ast.Allreduce_max v -> reduce m `Max v
    | Ast.Allreduce_min v -> reduce m `Min v
    | Ast.Allreduce_sum v -> reduce m `Sum v
    | Ast.Broadcast vars ->
        let vals =
          t.t_bcast
            (if rank = 0 then
               Array.of_list
                 (List.map (fun v -> Value.to_float (iface.i_scalar m v)) vars)
             else Array.make (List.length vars) 0.0)
        in
        List.iteri (fun i v -> iface.i_set_scalar m v (Value.Real vals.(i))) vars
    | Ast.Allgather arrays -> (
        match
          plan sid (fun () ->
              build_allgather_plan ~gi ~topo ~rank ~nranks (iface.i_array m)
                arrays)
        with
        | P_allgather l -> t.t_allgather (data m) l
        | _ -> assert false)
    | Ast.Barrier -> t.t_barrier ()
  in
  (* recv: wait for the upstream neighbor's fresh planes before the
     sweep; send: forward my downstream boundary after it *)
  let pipe ~recv m sid ~dim ~dir arrays =
    match
      plan sid (fun () ->
          build_pipe_plan ~gi ~topo ~rank ~recv ~dim ~dir (iface.i_array m)
            arrays)
    with
    | P_pipe None -> ()
    | P_pipe (Some (peer, per_array)) ->
        List.iter
          (fun (name, p) ->
            if recv then
              unpack_checked "pipeline message" p (data m name)
                (t.t_recv ~src:peer ~tag:tag_pipe)
            else t.t_send ~dest:peer ~tag:tag_pipe (pack p (data m name)))
          per_array
    | _ -> assert false
  in
  let hook m kind sid f =
    ignore (t.t_guard m kind (fun () -> traced m sid f) : unit option)
  in
  {
    Machine.h_block =
      Some
        (fun d ->
          (block.Autocfd_partition.Block.lo.(d),
           block.Autocfd_partition.Block.hi.(d)));
    h_comm = (fun m ~sid c -> hook m (H_comm c) sid (fun () -> comm m sid c));
    h_pipe_recv =
      (fun m ~sid ~dim ~dir arrays ->
        hook m H_pipe_recv sid (fun () -> pipe ~recv:true m sid ~dim ~dir arrays));
    h_pipe_send =
      (fun m ~sid ~dim ~dir arrays ->
        hook m H_pipe_send sid (fun () ->
            pipe ~recv:false m sid ~dim ~dir arrays));
    h_read =
      (fun m n ->
        match
          t.t_guard m H_read (fun () ->
              t.t_bcast
                (if rank = 0 then iface.i_seq.Machine.h_read m n
                 else Array.make n 0.0))
        with
        | Some data -> data
        (* replay: every rank reads its own copy of the input list —
           same values the broadcast delivered, no communication *)
        | None -> iface.i_seq.Machine.h_read m n);
    h_write =
      (fun m values ->
        if rank = 0 && t.t_live () then iface.i_seq.Machine.h_write m values);
  }

let sync_table config u =
  match config.tracer with None -> Hashtbl.create 1 | Some _ -> sync_points u

let record_phase tr ?wall ~rank ~t0 ~t1 si iter =
  Trace.phase tr ?wall ~rank ~t0 ~t1 ~sync:si.si_id ~label:si.si_label
    ?loop:si.si_loop ?iter ()

(* per-nest profile summaries: one Kernel event per executed nest,
   spanning [0, secs k].  Emitted after the run so they are summaries,
   not timeline slices — Metrics folds them into its kernel table
   instead of the rank accounting *)
let record_kernels tr ?wall ~rank ~secs ks =
  List.iter
    (fun (k : Compile.kernel_stat) ->
      if k.Compile.ks_calls > 0 then
        Trace.record tr ?wall ~rank ~t0:0.0 ~t1:(secs k) (kernel_event k))
    ks

(* ------------------------------------------------------------------ *)
(* Simulated cluster: virtual clock, faults, checkpoint/restart        *)
(* ------------------------------------------------------------------ *)

let run_sim : 'm. 'm iface -> config -> Ast.program_unit -> result =
 fun iface config u ->
  let topo = config.topo and gi = config.gi in
  let nranks = Topology.nranks topo in
  let machines = Array.make nranks None in
  let flops_per_rank = Array.make nranks 0.0 in
  let endpoints : Reliable.t option array = Array.make nranks None in
  (* per-rank checkpoint generations, most recent first; persists across
     restart attempts *)
  let snapshots : snapshot list array = Array.make nranks [] in
  let saved = ref 0 and restored = ref 0 in
  let output_prefix = ref [] in
  let sync_tbl = sync_table config u in
  (* newest visit count for which EVERY rank holds a snapshot: checkpoint
     decisions are deterministic in the visit counter, so a snapshot at
     visit v on one rank implies every rank that reached v also took one *)
  let restore_of () =
    if Array.exists (fun l -> l = []) snapshots then None
    else
      let target =
        Array.fold_left
          (fun acc l -> min acc (List.hd l).ck_visits)
          max_int snapshots
      in
      let picked =
        Array.map
          (List.find_opt (fun s -> s.ck_visits = target))
          snapshots
      in
      if Array.for_all Option.is_some picked then
        Some (Array.map Option.get picked)
      else None
  in
  let attempt restore =
    Array.fill machines 0 nranks None;
    Array.fill flops_per_rank 0 nranks 0.0;
    Array.fill endpoints 0 nranks None;
    let restore_target =
      match restore with
      | Some snaps ->
          output_prefix := snaps.(0).ck_output;
          snaps.(0).ck_visits
      | None ->
          output_prefix := [];
          0
    in
  let body (c : Sim.comm) =
    let r = Sim.rank c in
    (* reliable transport: only paid for when faults are injected *)
    let ep =
      match config.faults with
      | Some _ -> Some (Reliable.create c)
      | None -> None
    in
    endpoints.(r) <- ep;
    let send ~dest ~tag payload =
      match ep with
      | Some e -> Reliable.send e ~dest ~tag payload
      | None -> Sim.send c ~dest ~tag payload
    in
    let recv ~src ~tag =
      match ep with
      | Some e -> Reliable.recv e ~src ~tag
      | None -> Sim.recv c ~src ~tag
    in
    let flush () = match ep with Some e -> Reliable.flush e | None -> () in
    (* recovery replay state: count sync-point visits (identical sequence
       on every rank); until the restore target is reached, communication
       is suppressed and the unit replays on local data only *)
    let visits = ref 0 in
    let pipe_open = ref 0 in
    let live = ref (restore_target = 0) in
    (* lazy compute-time accounting: charge accumulated flops before any
       blocking operation *)
    let last_flops = ref 0.0 in
    let charge m =
      let f = iface.i_flops m in
      let delta = f -. !last_flops in
      last_flops := f;
      if !live && config.flop_time > 0.0 then
        Sim.advance c (delta *. config.flop_time)
    in
    let trace_ckpt ~save ~bytes =
      match config.tracer with
      | Some tr ->
          let now = Sim.time c in
          Trace.record tr ~rank:r ~t0:now ~t1:now
            (Trace.Checkpoint { save; bytes })
      | None -> ()
    in
    (* checkpoint I/O priced at the stable store's bandwidth (node-local
       storage, not the cluster interconnect) *)
    let ckpt_cost bytes =
      let bw =
        match config.recovery with
        | Some rc -> rc.rc_bandwidth
        | None -> default_recovery.rc_bandwidth
      in
      float_of_int bytes /. bw
    in
    let maybe_restore m =
      if (not !live) && !visits >= restore_target then begin
        (match restore with
        | Some snaps ->
            let s = snaps.(r) in
            List.iter (fun (n, v) -> iface.i_set_scalar m n v) s.ck_scalars;
            List.iter
              (fun (n, data) ->
                let dst = (iface.i_array m n).Value.data in
                Array.blit data 0 dst 0 (Array.length data))
              s.ck_arrays;
            last_flops := iface.i_flops m;
            let bytes = snapshot_bytes s in
            Sim.advance c (ckpt_cost bytes);
            trace_ckpt ~save:false ~bytes;
            if r = 0 then incr restored
        | None -> ());
        live := true
      end
    in
    let maybe_checkpoint m =
      match config.recovery with
      | Some rc
        when rc.rc_every > 0 && !pipe_open = 0
             && !visits mod rc.rc_every = 0 ->
          let s =
            {
              ck_visits = !visits;
              ck_scalars =
                List.filter
                  (fun (_, v) ->
                    match v with Value.Str _ -> false | _ -> true)
                  (iface.i_scalar_bindings m);
              ck_arrays =
                List.map
                  (fun n ->
                    (n, Array.copy (iface.i_array m n).Value.data))
                  (iface.i_array_names m);
              ck_output =
                (if r = 0 then !output_prefix @ iface.i_output m else []);
            }
          in
          snapshots.(r) <-
            s
            :: (List.filter (fun o -> o.ck_visits < s.ck_visits) snapshots.(r)
               |> List.filteri (fun i _ -> i < snapshot_history - 1));
          if r = 0 then incr saved;
          let bytes = snapshot_bytes s in
          Sim.advance c (ckpt_cost bytes);
          trace_ckpt ~save:true ~bytes
      | _ -> ()
    in
    let guard m kind op =
      charge m;
      incr visits;
      (* a pipeline stream is mid-flight between a recv and its send: the
         matching send sits at a LATER visit on the upstream rank, so a
         cut inside it would not be consistent — no checkpoint until it
         closes *)
      (match kind with
      | H_pipe_recv -> incr pipe_open
      | H_pipe_send -> decr pipe_open
      | H_comm _ | H_read -> ());
      if not !live then begin
        maybe_restore m;
        None
      end
      else begin
        (* an unacknowledged envelope must not survive into a
           collective: its sender would park where no retransmit can
           happen *)
        (match kind with
        | H_read
        | H_comm
            ( Ast.Allreduce_max _ | Ast.Allreduce_min _ | Ast.Allreduce_sum _
            | Ast.Broadcast _ | Ast.Barrier ) ->
            flush ()
        | H_comm (Ast.Exchange _ | Ast.Allgather _) | H_pipe_recv
        | H_pipe_send ->
            ());
        let v = op () in
        (match kind with H_pipe_recv -> () | _ -> maybe_checkpoint m);
        Some v
      end
    in
    (* set the rank's sync context, so simulator events recorded within
       attribute their messages and blocked time to this point *)
    let span tr si iter f =
      let t0 = Sim.time c in
      Trace.set_sync tr ~rank:r ~sync:si.si_id;
      Fun.protect ~finally:(fun () -> Trace.clear_sync tr ~rank:r) f;
      record_phase tr ~rank:r ~t0 ~t1:(Sim.time c) si iter
    in
    let transport =
      {
        t_send = send;
        t_recv = recv;
        t_allreduce = Sim.allreduce c;
        t_bcast = Sim.bcast c ~root:0;
        t_barrier = (fun () -> Sim.barrier c);
        t_exchange = exchange_by_messages ~send ~recv;
        t_allgather = allgather_by_messages ~send ~recv ~rank:r ~nranks;
        t_guard = guard;
        t_live = (fun () -> !live);
        t_span = Option.map span config.tracer;
      }
    in
    let m =
      iface.i_spawn
        (rank_hooks iface transport config ~sync_tbl ~rank:r)
        config.input
    in
    machines.(r) <- Some m;
    iface.i_run m;
    if not !live then
      failwith
        "Spmd: restart replay never reached the checkpointed sync point \
         (control flow depends on communication results?)";
    charge m;
    flush ();
    flops_per_rank.(r) <- iface.i_flops m;
    Option.iter
      (fun tr ->
        record_kernels tr ~rank:r
          ~secs:(fun k -> k.Compile.ks_flops *. config.flop_time)
          (iface.i_kernels m))
      config.tracer
  in
  Sim.run ~net:config.net ?tracer:config.tracer ?faults:config.faults
    ~nranks body
  in
  let max_restarts =
    match config.recovery with Some rc -> rc.rc_max_restarts | None -> 0
  in
  let rec attempts restarts =
    let restore = if restarts = 0 then None else restore_of () in
    match attempt restore with
    | stats -> (stats, restarts)
    | exception Sim.Timeout msg ->
        if restarts >= max_restarts then raise (Sim.Timeout msg)
        else attempts (restarts + 1)
  in
  let stats, restarts = attempts 0 in
  let machine r = Option.get machines.(r) in
  let gathered, scalars = gather_results iface ~gi ~topo ~nranks ~machine u in
  let resilience =
    let sum f =
      Array.fold_left
        (fun acc ep ->
          match ep with Some e -> acc + f (Reliable.stats e) | None -> acc)
        0 endpoints
    in
    {
      rs_restarts = restarts;
      rs_checkpoints = !saved;
      rs_restores = !restored;
      rs_retransmits = sum (fun s -> s.Reliable.rl_retransmits);
      rs_dup_suppressed = sum (fun s -> s.Reliable.rl_dup_suppressed);
      rs_checksum_failures = sum (fun s -> s.Reliable.rl_checksum_failures);
    }
  in
  {
    stats;
    output = !output_prefix @ iface.i_output (machine 0);
    gathered;
    scalars;
    flops_per_rank;
    resilience;
    domains = None;
  }

(* ------------------------------------------------------------------ *)
(* Domains engine: real parallel execution on OCaml 5 domains          *)
(* ------------------------------------------------------------------ *)

(* split an exchange plan (sorted by dim) into its dim groups *)
let dim_groups xps =
  let rec span d = function
    | x :: rest when x.xp_dim = d ->
        let g, tail = span d rest in
        (x :: g, tail)
    | l -> ([], l)
  in
  let rec go = function
    | [] -> []
    | x :: _ as l ->
        let g, tail = span x.xp_dim l in
        g :: go tail
  in
  go xps

(* Every rank executes on its own domain; fields stay plain [float
   array]s, which the OCaml 5 shared heap makes visible to every other
   domain, so a halo exchange is a bounds-checked blit straight out of
   the neighbour's array.  The runs are the rank's pack plans: both
   sides of a transfer compute identical runs (all ranks allocate
   full-extent arrays), so the simulator's pack -> message -> unpack
   pipeline collapses to copying the recv plan's runs from the
   neighbour's array into the same runs of the rank's own.

   Ordering protocol: a barrier opens every exchange (the neighbours'
   producing compute must be complete) and closes every dim group —
   higher-dim transfers read lower-dim halo cells through the diagonal
   extension, so those writes must land first.  Within one group, cells
   written (my halo in that dim) and cells peers read from me (my owned
   boundary, plus lower-dim halo written in earlier groups) are disjoint,
   so no intra-group fence is needed.  Collectives run through {!Shm},
   whose allreduce folds contributions in rank order with exactly the
   simulator's combine — the whole run is bit-identical to [Fused]. *)
let run_domains : 'm. 'm iface -> config -> Ast.program_unit -> result =
 fun iface config u ->
  if config.faults <> None then
    invalid_arg "Spmd: the Domains engine does not support fault injection";
  if config.recovery <> None then
    invalid_arg "Spmd: the Domains engine does not support recovery";
  let topo = config.topo and gi = config.gi in
  let nranks = Topology.nranks topo in
  let machines = Array.make nranks None in
  let flops_per_rank = Array.make nranks 0.0 in
  let compute_wall = Array.make nranks 0.0 in
  let comm_samples : (int * float) list array = Array.make nranks [] in
  (* per rank, what the simulator counts: each halo or allgather copy
     is one message (sent by its source, received by the copying rank)
     of the bytes copied, and each collective hook one collective *)
  let sent = Array.make nranks 0 and received = Array.make nranks 0 in
  let copied = Array.make nranks 0 and colls = Array.make nranks 0 in
  (* wall-clock sync-point spans, compute intervals and hook intervals
     (entry, exit, sync id, bytes copied, and the indices of the hook's
     first and past-last waits in the rank's [Shm] waits), buffered per
     rank during the run (the tracer is not thread-safe) and replayed
     after the domains join; [started] is when each rank's first compute
     interval opens *)
  let tracing = config.tracer <> None in
  let pending = Array.make nranks [] in
  let computing = Array.make nranks [] in
  let hooked = Array.make nranks [] in
  let started = Array.make nranks 0.0 in
  let sync_tbl = sync_table config u in
  let body (c : Shm.comm) =
    let r = Shm.rank c in
    let last = ref 0.0 in
    let compute = ref 0.0 in
    (* the compute interval from the last hook's exit to [t] *)
    let close_compute t =
      compute := !compute +. (t -. !last);
      if tracing then computing.(r) <- (!last, t) :: computing.(r)
    in
    let copy_bytes = ref 0 and nsent = ref 0 and nreceived = ref 0 in
    let ncolls = ref 0 in
    let samples = ref [] in
    let peer_data name peer =
      match machines.(peer) with
      | Some m -> (iface.i_array m name).Value.data
      | None -> failwith "Spmd: Domains peer machine not published"
    in
    let blit_in p ~src ~dst =
      if Array.length src <> Array.length dst then
        failwith "Spmd: halo blit shape mismatch";
      blit_runs p.pp_runs ~src ~dst;
      incr nreceived;
      copy_bytes := !copy_bytes + (8 * runs_total p.pp_runs)
    in
    let exchange data_of xps =
      Shm.barrier c;
      List.iter
        (fun group ->
          List.iter
            (fun xp ->
              if Option.is_some xp.xp_send then incr nsent;
              match xp.xp_recv with
              | Some (src, p) ->
                  blit_in p ~src:(peer_data xp.xp_array src)
                    ~dst:(data_of xp.xp_array)
              | None -> ())
            group;
          Shm.barrier c)
        (dim_groups xps)
    in
    let allgather data_of per_array =
      Shm.barrier c;
      nsent := !nsent + ((nranks - 1) * List.length per_array);
      List.iter
        (fun (name, _mine, peers) ->
          let dst = data_of name in
          for peer = 0 to nranks - 1 do
            if peer <> r then blit_in peers.(peer) ~src:(peer_data name peer) ~dst
          done)
        per_array;
      Shm.barrier c
    in
    (* close the open compute interval at a communication hook; reopen
       it when the hook returns.  The span of a traced hook names its
       sync point *)
    let sync = ref (-1) in
    let guard _ kind op =
      let t_in = Shm.time c in
      close_compute t_in;
      let b0 = !copy_bytes and w0 = Shm.waited c and n0 = Shm.wait_count c in
      sync := -1;
      let v = op () in
      let t_out = Shm.time c and bytes = !copy_bytes - b0 in
      (* a copy sample is the hook's interval less its waits *)
      (match kind with
      | H_comm (Ast.Exchange _ | Ast.Allgather _) ->
          samples := (bytes, t_out -. t_in -. (Shm.waited c -. w0)) :: !samples
      | _ -> ());
      if tracing then
        hooked.(r) <-
          (t_in, t_out, !sync, bytes, n0, Shm.wait_count c) :: hooked.(r);
      last := t_out;
      Some v
    in
    let span si iter f =
      let t0 = Shm.time c in
      sync := si.si_id;
      f ();
      pending.(r) <- (t0, Shm.time c, si, iter) :: pending.(r)
    in
    let transport =
      {
        t_send = Shm.send c;
        t_recv = Shm.recv c;
        (* one collective per allreduce, bcast or barrier hook, as the
           simulator counts them: an exchange's barriers are not *)
        t_allreduce = (fun op v -> incr ncolls; Shm.allreduce c op v);
        t_bcast = (fun d -> incr ncolls; Shm.bcast c ~root:0 d);
        t_barrier = (fun () -> incr ncolls; Shm.barrier c);
        t_exchange = exchange;
        t_allgather = allgather;
        t_guard = guard;
        t_live = (fun () -> true);
        t_span = Option.map (fun _ -> span) config.tracer;
      }
    in
    let m =
      iface.i_spawn
        (rank_hooks iface transport config ~sync_tbl ~rank:r)
        config.input
    in
    machines.(r) <- Some m;
    (* publish before anyone's first exchange can read a peer's array *)
    Shm.barrier c;
    last := Shm.time c;
    started.(r) <- !last;
    iface.i_run m;
    close_compute (Shm.time c);
    compute_wall.(r) <- !compute;
    comm_samples.(r) <- List.rev !samples;
    sent.(r) <- !nsent;
    received.(r) <- !nreceived;
    copied.(r) <- !copy_bytes;
    colls.(r) <- !ncolls;
    flops_per_rank.(r) <- iface.i_flops m
  in
  let shm =
    try Shm.run ~nranks body
    with Shm.Rank_failure (r, e) -> raise (Sim.Rank_failure (r, e))
  in
  let ranks = shm.Shm.ranks in
  (* the mailbox (pipeline) traffic plus the copies *)
  let per_rank f extra = Array.mapi (fun r rs -> f rs + extra.(r)) ranks in
  let total = Array.fold_left ( + ) 0 in
  let rank_sends = per_rank (fun rs -> rs.Shm.rs_sends) sent in
  let stats =
    {
      Sim.elapsed = shm.Shm.elapsed;
      rank_times = Array.map (fun rs -> rs.Shm.rs_wall) ranks;
      messages = total rank_sends;
      bytes = total (per_rank (fun rs -> rs.Shm.rs_bytes) copied);
      collectives = colls.(0);
      rank_sends;
      rank_recvs = per_rank (fun rs -> rs.Shm.rs_recvs) received;
      rank_blocked =
        Array.map (fun rs -> rs.Shm.rs_barrier_wait +. rs.Shm.rs_recv_wait) ranks;
    }
  in
  let machine r = Option.get machines.(r) in
  (match config.tracer with
  | None -> ()
  | Some tr ->
      Trace.prepare tr ~nranks;
      Array.iteri
        (fun r pend ->
          List.iter
            (fun (t0, t1, si, iter) ->
              record_phase tr ~wall:true ~rank:r ~t0 ~t1 si iter)
            (List.rev pend))
        pending;
      Array.iteri
        (fun r spans ->
          List.iter
            (fun (t0, t1) ->
              Trace.record tr ~wall:true ~rank:r ~t0 ~t1 Trace.Compute)
            (List.rev spans))
        computing;
      (* each rank's start-up (domain start, [Compile.create], the
         publish barrier) is blocked time; a hook's interval splits into
         its waits (blocked) and the rest (comm: blits straight out of a
         peer's array, collective arithmetic), all on its sync point,
         the hook's copied bytes on its first comm piece.  Every wait
         becomes one Blocked event, a zero-length one too: the clock
         steps in whole microseconds, so a short poll can read 0 s *)
      Array.iteri
        (fun r rs ->
          let record ~t0 ~t1 kind =
            Trace.record tr ~wall:true ~rank:r ~t0 ~t1 kind
          in
          record ~t0:0.0 ~t1:started.(r)
            (Trace.Blocked { src = -1; tag = -1 });
          let comm t0 t1 bytes =
            if t1 > t0 || bytes > 0 then
              record ~t0 ~t1 (Trace.Recv { src = -1; tag = -1; bytes })
          in
          let waits = Array.of_list rs.Shm.rs_waits in
          List.iter
            (fun (t_in, t_out, sync, bytes, n0, n1) ->
              if sync >= 0 then Trace.set_sync tr ~rank:r ~sync;
              let t = ref t_in and bytes = ref bytes in
              for i = n0 to n1 - 1 do
                let w = waits.(i) in
                comm !t w.Shm.w_start !bytes;
                bytes := 0;
                t := w.Shm.w_start +. w.Shm.w_dur;
                record ~t0:w.Shm.w_start ~t1:!t
                  (Trace.Blocked
                     {
                       src = -1;
                       tag = (if w.Shm.w_barrier then -1 else tag_pipe);
                     })
              done;
              comm !t t_out !bytes;
              Trace.clear_sync tr ~rank:r)
            (List.rev hooked.(r)))
        ranks;
      (* kernel summaries in measured wall seconds: the rank's compute
         wall split across nests by their shares of all the rank's flops,
         so compute spent outside every nest stays unattributed *)
      for r = 0 to nranks - 1 do
        let total = flops_per_rank.(r) in
        record_kernels tr ~wall:true ~rank:r
          ~secs:(fun k ->
            compute_wall.(r)
            *. (if total > 0.0 then k.Compile.ks_flops /. total else 0.0))
          (iface.i_kernels (machine r))
      done);
  let gathered, scalars = gather_results iface ~gi ~topo ~nranks ~machine u in
  let dstats =
    {
      ds_wall = shm.Shm.elapsed;
      ds_compute = Array.copy compute_wall;
      ds_barrier_wait = Array.map (fun rs -> rs.Shm.rs_barrier_wait) ranks;
      ds_barrier_calls = ranks.(0).Shm.rs_barrier_calls;
      ds_flops = Array.copy flops_per_rank;
      ds_comm_samples = List.concat (Array.to_list comm_samples);
    }
  in
  {
    stats;
    output = iface.i_output (machine 0);
    gathered;
    scalars;
    flops_per_rank;
    resilience = no_resilience;
    domains = Some dstats;
  }

(* ------------------------------------------------------------------ *)
(* Engine wiring                                                       *)
(* ------------------------------------------------------------------ *)

let tree_iface (u : Ast.program_unit) : Machine.t iface =
  {
    i_spawn = (fun hooks input -> Machine.create ~hooks ~input u);
    i_run = Machine.run;
    i_flops = Machine.flops;
    i_array = Machine.array;
    i_scalar = Machine.scalar;
    i_set_scalar = Machine.set_scalar;
    i_scalar_bindings = Machine.scalar_bindings;
    i_array_names = Machine.array_names;
    i_output = Machine.output;
    i_seq = Machine.sequential_hooks;
    i_kernels = (fun _ -> []);
  }

let compiled_iface ~fuse (u : Ast.program_unit) : Compile.state iface =
  let cu = Compile.of_unit ~fuse u in
  {
    i_spawn = (fun hooks input -> Compile.create ~hooks ~input cu);
    i_run = Compile.run;
    i_flops = Compile.flops;
    i_array = Compile.array;
    i_scalar = Compile.scalar;
    i_set_scalar = Compile.set_scalar;
    i_scalar_bindings = Compile.scalar_bindings;
    i_array_names = Compile.array_names;
    i_output = Compile.output;
    i_seq = Compile.sequential_hooks;
    i_kernels = Compile.kernel_stats;
  }

let run ?(engine = Fused) ?(fuse = true) config (u : Ast.program_unit) =
  match engine with
  | Fused -> run_sim (compiled_iface ~fuse u) config u
  | Domains -> run_domains (compiled_iface ~fuse u) config u

let run_tree config (u : Ast.program_unit) = run_sim (tree_iface u) config u
