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
  ds_rank_wall : float array;
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

(* iterate an n-dimensional inclusive range *)
let iter_box ranges f =
  let n = Array.length ranges in
  let idx = Array.map fst ranges in
  if Array.for_all (fun (lo, hi) -> lo <= hi) ranges then begin
    let rec go d =
      if d = n then f idx
      else
        let lo, hi = ranges.(d) in
        for i = lo to hi do
          idx.(d) <- i;
          go (d + 1)
        done
    in
    go 0
  end

let box_size ranges =
  Array.fold_left (fun acc (lo, hi) -> acc * max 0 (hi - lo + 1)) 1 ranges

(* The array-dim ranges of the planes a given OWNER rank sends for one
   transfer.  [ext] extends already-refreshed lower grid dimensions so that
   diagonal (corner) stencil points are carried (sequenced exchange). *)
let plane_ranges gi topo ~owner_rank (arr : Value.arr)
    (xfer : Ast.transfer) ~ext_of_dim =
  let sa =
    match GI.find_status gi xfer.Ast.xfer_array with
    | Some sa -> sa
    | None -> invalid_arg ("Spmd: transfer of non-status " ^ xfer.Ast.xfer_array)
  in
  let block = Topology.block topo owner_rank in
  Array.init (Value.rank arr) (fun k ->
      let alo, ahi = arr.Value.bounds.(k) in
      match sa.GI.sa_dims.(k) with
      | None -> (alo, ahi) (* packed dimension: full extent *)
      | Some g when g = xfer.Ast.xfer_dim ->
          let blo = block.Autocfd_partition.Block.lo.(g)
          and bhi = block.Autocfd_partition.Block.hi.(g) in
          let lo, hi =
            match xfer.Ast.xfer_dir with
            | Ast.Dplus -> (max blo (bhi - xfer.Ast.xfer_depth + 1), bhi)
            | Ast.Dminus -> (blo, min bhi (blo + xfer.Ast.xfer_depth - 1))
          in
          (max alo lo, min ahi hi)
      | Some g ->
          let blo = block.Autocfd_partition.Block.lo.(g)
          and bhi = block.Autocfd_partition.Block.hi.(g) in
          let ext = if g < xfer.Ast.xfer_dim then ext_of_dim g else 0 in
          (max alo (blo - ext), min ahi (bhi + ext)))

(* ranges of the pipeline payload planes sent by [owner_rank]: the owned
   boundary planes of the sweep dimension over the owned ranges of the
   other status dimensions *)
let pipe_ranges gi topo ~owner_rank (arr : Value.arr) ~dim ~dir ~depth array_name =
  let sa =
    match GI.find_status gi array_name with
    | Some sa -> sa
    | None -> invalid_arg ("Spmd: pipeline of non-status " ^ array_name)
  in
  let block = Topology.block topo owner_rank in
  Array.init (Value.rank arr) (fun k ->
      let alo, ahi = arr.Value.bounds.(k) in
      match sa.GI.sa_dims.(k) with
      | None -> (alo, ahi)
      | Some g when g = dim ->
          let blo = block.Autocfd_partition.Block.lo.(g)
          and bhi = block.Autocfd_partition.Block.hi.(g) in
          let lo, hi =
            match dir with
            | Ast.Dplus -> (max blo (bhi - depth + 1), bhi)
            | Ast.Dminus -> (blo, min bhi (blo + depth - 1))
          in
          (max alo lo, min ahi hi)
      | Some g ->
          let blo = block.Autocfd_partition.Block.lo.(g)
          and bhi = block.Autocfd_partition.Block.hi.(g) in
          (max alo blo, min ahi bhi))

(* ------------------------------------------------------------------ *)
(* Cached message plans                                                *)
(* ------------------------------------------------------------------ *)

(* Everything a sync point's boxes depend on — grid info, topology, array
   bounds, the statement's transfer list — is fixed for the whole run, so
   the element offsets each message packs from / unpacks into are computed
   once per (rank, sync point) and every subsequent visit is a tight copy
   over a flat offset vector instead of an n-dimensional index walk. *)

let offsets_of arr ranges =
  let out = Array.make (box_size ranges) 0 in
  let i = ref 0 in
  iter_box ranges (fun idx ->
      out.(!i) <- Value.linear_index arr idx;
      incr i);
  out

(* A cached pack/unpack plan: the flat element offsets in payload order,
   compressed into maximal contiguous runs.  When runs are long enough
   (boundary planes along the fastest-varying dimension are fully
   contiguous) packing becomes a few [Array.blit]s into a reusable payload
   buffer instead of a per-element gather; the payload's element order is
   unchanged either way, so message contents, sizes and simulator
   statistics are identical.  Reusing [pp_buf] across visits is safe
   because [Sim.send] copies its payload. *)
type pack_plan = {
  pp_total : int;
  pp_offs : int array;
  pp_segs : (int * int) array;  (* (start offset, length) runs, in order *)
  pp_blit : bool;  (* segment copies win over the element walk *)
  pp_buf : float array;
}

(* average run length at which per-segment Array.blit beats the
   per-element loop (short runs pay blit's call overhead) *)
let blit_threshold = 4

let plan_of_offsets offs =
  let n = Array.length offs in
  let segs = ref [] in
  let nsegs = ref 0 in
  let i = ref 0 in
  while !i < n do
    let start = offs.(!i) in
    let j = ref (!i + 1) in
    while !j < n && offs.(!j) = offs.(!j - 1) + 1 do
      incr j
    done;
    segs := (start, !j - !i) :: !segs;
    incr nsegs;
    i := !j
  done;
  {
    pp_total = n;
    pp_offs = offs;
    pp_segs = Array.of_list (List.rev !segs);
    pp_blit = n > 0 && !nsegs * blit_threshold <= n;
    pp_buf = Array.make n 0.0;
  }

let plan_of arr ranges = plan_of_offsets (offsets_of arr ranges)

let pack p (data : float array) =
  let buf = p.pp_buf in
  if p.pp_blit then begin
    let pos = ref 0 in
    Array.iter
      (fun (start, len) ->
        Array.blit data start buf !pos len;
        pos := !pos + len)
      p.pp_segs
  end
  else begin
    let offs = p.pp_offs in
    for i = 0 to p.pp_total - 1 do
      Array.unsafe_set buf i (data.(Array.unsafe_get offs i))
    done
  end;
  buf

let unpack p (data : float array) payload =
  if p.pp_blit then begin
    let pos = ref 0 in
    Array.iter
      (fun (start, len) ->
        Array.blit payload !pos data start len;
        pos := !pos + len)
      p.pp_segs
  end
  else
    let offs = p.pp_offs in
    for i = 0 to p.pp_total - 1 do
      data.(Array.unsafe_get offs i) <- Array.unsafe_get payload i
    done

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
(* Process-wide plan cache                                             *)
(* ------------------------------------------------------------------ *)

(* A plan depends only on (sync point, rank, grid, partition) —
   sync-point ids are process-unique, so the id pins down the program
   unit too, and every engine allocates the same full-extent arrays, so
   the offsets are the same whichever engine builds them.  Caching
   process-wide means switching engines on the same unit within one
   process (exactly what the bit-equivalence harness does) plans each
   sync point once instead of once per run.  The cached offset/segment
   vectors are immutable and safe to share across domains; [pp_buf] is
   private to a run, so every lookup re-arms the plan with fresh
   buffers. *)
let plan_cache : (int * int * int list * int list, plan) Hashtbl.t =
  Hashtbl.create 256

let plan_cache_mutex = Mutex.create ()

(* far above any real sweep's working set; reset wholesale rather than
   tracking LRU order for a cache this cheap to refill *)
let plan_cache_cap = 4096

let refresh_pack p = { p with pp_buf = Array.make (Array.length p.pp_buf) 0.0 }

let refresh_plan = function
  | P_exchange l ->
      P_exchange
        (List.map
           (fun xp ->
             {
               xp with
               xp_send =
                 Option.map (fun (d, p) -> (d, refresh_pack p)) xp.xp_send;
               xp_recv =
                 Option.map (fun (s, p) -> (s, refresh_pack p)) xp.xp_recv;
             })
           l)
  | P_pipe o ->
      P_pipe
        (Option.map
           (fun (peer, per_array) ->
             (peer, List.map (fun (n, p) -> (n, refresh_pack p)) per_array))
           o)
  | P_allgather l ->
      P_allgather
        (List.map
           (fun (n, mine, peers) ->
             (n, refresh_pack mine, Array.map refresh_pack peers))
           l)

let cached_plan ~topo ~rank ~sid build =
  let key =
    ( sid,
      rank,
      Array.to_list (Topology.grid topo),
      Array.to_list (Topology.parts topo) )
  in
  match
    Mutex.protect plan_cache_mutex (fun () -> Hashtbl.find_opt plan_cache key)
  with
  | Some p -> refresh_plan p
  | None ->
      let p = build () in
      Mutex.protect plan_cache_mutex (fun () ->
          if Hashtbl.length plan_cache >= plan_cache_cap then
            Hashtbl.reset plan_cache;
          Hashtbl.replace plan_cache key p);
      refresh_plan p

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
         let arr = array xfer.Ast.xfer_array in
         let send =
           match topo_neighbor topo ~rank xfer.Ast.xfer_dim xfer.Ast.xfer_dir with
           | Some dest ->
               Some
                 ( dest,
                   plan_of arr
                     (plane_ranges gi topo ~owner_rank:rank arr xfer
                        ~ext_of_dim) )
           | None -> None
         in
         let recv =
           match
             topo_neighbor topo ~rank xfer.Ast.xfer_dim
               (opposite_dir xfer.Ast.xfer_dir)
           with
           | Some src ->
               Some
                 ( src,
                   plan_of arr
                     (plane_ranges gi topo ~owner_rank:src arr xfer
                        ~ext_of_dim) )
           | None -> None
         in
         {
           xp_array = xfer.Ast.xfer_array;
           xp_dim = xfer.Ast.xfer_dim;
           xp_send = send;
           xp_recv = recv;
         })
       transfers)

let build_pipe_plan ~gi ~topo ~rank ~recv ~dim ~dir array arrays =
  let peer_dir = if recv then opposite_dir dir else dir in
  P_pipe
    (match topo_neighbor topo ~rank dim peer_dir with
    | None -> None
    | Some peer ->
        Some
          ( peer,
            List.map
              (fun (name, depth) ->
                let arr = array name in
                let owner = if recv then peer else rank in
                ( name,
                  plan_of arr
                    (pipe_ranges gi topo ~owner_rank:owner arr ~dim ~dir
                       ~depth name) ))
              arrays ))

let build_allgather_plan ~gi ~topo ~rank ~nranks array arrays =
  let owned_offsets owner arr name =
    let sa =
      match GI.find_status gi name with
      | Some sa -> sa
      | None -> invalid_arg ("Spmd: allgather of non-status " ^ name)
    in
    let b = Topology.block topo owner in
    plan_of arr
      (Array.init (Value.rank arr) (fun k ->
           let alo, ahi = arr.Value.bounds.(k) in
           match sa.GI.sa_dims.(k) with
           | None -> (alo, ahi)
           | Some g ->
               ( max alo b.Autocfd_partition.Block.lo.(g),
                 min ahi b.Autocfd_partition.Block.hi.(g) )))
  in
  P_allgather
    (List.map
       (fun name ->
         let arr = array name in
         let mine = owned_offsets rank arr name in
         let peers =
           Array.init nranks (fun peer ->
               if peer = rank then plan_of_offsets [||]
               else owned_offsets peer arr name)
         in
         (name, mine, peers))
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
  let gathered =
    List.map
      (fun name ->
        let a0 = iface.i_array m0 name in
        match GI.find_status gi name with
        | None -> (name, Value.copy a0)
        | Some sa ->
            let out = Value.copy a0 in
            for r = 0 to nranks - 1 do
              let src = iface.i_array (machine r) name in
              let block = Topology.block topo r in
              let ranges =
                Array.init (Value.rank src) (fun k ->
                    let alo, ahi = src.Value.bounds.(k) in
                    match sa.GI.sa_dims.(k) with
                    | None -> (alo, ahi)
                    | Some g ->
                        ( max alo block.Autocfd_partition.Block.lo.(g),
                          min ahi block.Autocfd_partition.Block.hi.(g) ))
              in
              iter_box ranges (fun idx -> Value.set out idx (Value.get src idx))
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
  if Array.length payload <> p.pp_total then
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
  let plans : (int, plan) Hashtbl.t = Hashtbl.create 16 in
  let plan sid build =
    match Hashtbl.find_opt plans sid with
    | Some p -> p
    | None ->
        let p = cached_plan ~topo ~rank ~sid build in
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
   the neighbour's array.  The element offsets are the cached pack
   plans: both sides of a transfer compute identical offsets (all ranks
   allocate full-extent arrays), so the simulator's pack -> message ->
   unpack pipeline collapses to [dst.(o) <- src.(o)] over the recv plan.

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
  (* wall-clock sync-point spans and compute intervals, buffered per rank
     during the run (the tracer is not thread-safe) and replayed after
     the domains join *)
  let tracing = config.tracer <> None in
  let pending = Array.make nranks [] in
  let computing = Array.make nranks [] in
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
    let copy_bytes = ref 0 in
    let samples = ref [] in
    let peer_data name peer =
      match machines.(peer) with
      | Some m -> (iface.i_array m name).Value.data
      | None -> failwith "Spmd: Domains peer machine not published"
    in
    let blit_in p ~src ~dst =
      if Array.length src <> Array.length dst then
        failwith "Spmd: halo blit shape mismatch";
      if p.pp_blit then
        Array.iter
          (fun (start, len) -> Array.blit src start dst start len)
          p.pp_segs
      else begin
        let offs = p.pp_offs in
        for i = 0 to p.pp_total - 1 do
          let o = offs.(i) in
          dst.(o) <- src.(o)
        done
      end;
      copy_bytes := !copy_bytes + (8 * p.pp_total)
    in
    let exchange data_of xps =
      Shm.barrier c;
      List.iter
        (fun group ->
          List.iter
            (fun xp ->
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
       it when the hook returns.  Time inside the hook (halo blits,
       collective arithmetic) beyond its waits is neither compute nor
       comm *)
    let guard _ kind op =
      let t_in = Shm.time c in
      close_compute t_in;
      let b0 = !copy_bytes in
      let v = op () in
      (match kind with
      | H_comm (Ast.Exchange _ | Ast.Allgather _) ->
          samples := (!copy_bytes - b0, Shm.time c -. t_in) :: !samples
      | _ -> ());
      last := Shm.time c;
      Some v
    in
    let span si iter f =
      let t0 = Shm.time c in
      f ();
      pending.(r) <- (t0, Shm.time c, si, iter) :: pending.(r)
    in
    let transport =
      {
        t_send = Shm.send c;
        t_recv = Shm.recv c;
        t_allreduce = Shm.allreduce c;
        t_bcast = Shm.bcast c ~root:0;
        t_barrier = (fun () -> Shm.barrier c);
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
    iface.i_run m;
    close_compute (Shm.time c);
    compute_wall.(r) <- !compute;
    comm_samples.(r) <- List.rev !samples;
    flops_per_rank.(r) <- iface.i_flops m
  in
  let shm =
    try Shm.run ~nranks body
    with Shm.Rank_failure (r, e) -> raise (Sim.Rank_failure (r, e))
  in
  let ranks = shm.Shm.ranks in
  let sum_i f = Array.fold_left (fun acc rs -> acc + f rs) 0 ranks in
  let stats =
    {
      Sim.elapsed = shm.Shm.elapsed;
      rank_times = Array.map (fun rs -> rs.Shm.rs_wall) ranks;
      messages = sum_i (fun rs -> rs.Shm.rs_sends);
      bytes = sum_i (fun rs -> rs.Shm.rs_bytes);
      collectives = ranks.(0).Shm.rs_collectives;
      rank_sends = Array.map (fun rs -> rs.Shm.rs_sends) ranks;
      rank_recvs = Array.map (fun rs -> rs.Shm.rs_recvs) ranks;
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
      Array.iteri
        (fun r rs ->
          List.iter
            (fun (w : Shm.wait) ->
              if w.Shm.w_dur > 0.0 then
                Trace.record tr ~wall:true ~rank:r ~t0:w.Shm.w_start
                  ~t1:(w.Shm.w_start +. w.Shm.w_dur)
                  (Trace.Blocked
                     {
                       src = -1;
                       tag = (if w.Shm.w_barrier then -1 else tag_pipe);
                     }))
            rs.Shm.rs_waits)
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
      ds_rank_wall = Array.map (fun rs -> rs.Shm.rs_wall) ranks;
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
