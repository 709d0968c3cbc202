open Autocfd_fortran
module A = Autocfd_analysis
module S = Autocfd_syncopt
module P = Autocfd_partition
module C = Autocfd_codegen
module I = Autocfd_interp
module M = Autocfd_mpsim

type t = {
  program : Ast.program;
  inlined : Ast.program_unit;
  gi : A.Grid_info.t;
  splits : A.Fission.split list;
}

let load ?(spec = Runspec.default) source =
  let program = Parser.parse source in
  let gi = A.Grid_info.of_program program in
  let inlined = Inline.program program in
  let inlined, splits =
    if spec.Runspec.fission then A.Fission.distribute inlined
    else (inlined, [])
  in
  { program; inlined; gi; splits }

type plan = {
  source : t;
  topo : P.Topology.t;
  summaries : A.Field_loop.summary list;
  sldp : A.Sldp.t;
  layout : S.Layout.t;
  opt : S.Optimizer.result;
  strategies : (int * A.Mirror.strategy) list;
  spmd : Ast.program_unit;
}

let auto_parts t ~nprocs =
  let grid = t.gi.A.Grid_info.grid in
  let depth = Array.make (Array.length grid) 1 in
  P.Topology.search ~grid ~nprocs ~depth

let plan ?(spec = Runspec.default) t =
  let combine = spec.Runspec.combine in
  let parts =
    match spec.Runspec.parts with
    | Some p -> p
    | None -> auto_parts t ~nprocs:spec.Runspec.nprocs
  in
  let topo = P.Topology.create ~grid:t.gi.A.Grid_info.grid ~parts in
  let loops = A.Loops.build t.inlined in
  let summaries = A.Field_loop.analyze_unit t.gi t.inlined in
  let sldp = A.Sldp.compute t.gi topo loops summaries in
  let layout = S.Layout.of_unit t.inlined in
  let opt = S.Optimizer.run ~combine sldp ~layout in
  let input : C.Transform.input =
    {
      C.Transform.in_unit = t.inlined;
      in_gi = t.gi;
      in_topo = topo;
      in_summaries = summaries;
      in_groups = opt.S.Optimizer.groups;
      in_layout = layout;
    }
  in
  let strategies = C.Transform.strategies input in
  let spmd = C.Transform.run input in
  { source = t; topo; summaries; sldp; layout; opt; strategies; spmd }

let auto_parts_by_model ?(machine = Autocfd_perfmodel.Model.pentium_cluster) t
    ~nprocs =
  let grid = t.gi.A.Grid_info.grid in
  let candidates =
    P.Topology.factorizations nprocs (Array.length grid)
    |> List.filter (fun parts ->
           match P.Topology.create ~grid ~parts with
           | _ -> true
           | exception Invalid_argument _ -> false)
  in
  match candidates with
  | [] -> invalid_arg "Driver.auto_parts_by_model: no feasible partition"
  | first :: _ ->
      let time parts =
        let p = plan ~spec:(Runspec.with_parts (Some parts) Runspec.default) t in
        (Autocfd_perfmodel.Model.predict_parallel machine ~gi:t.gi
           ~topo:p.topo p.spmd)
          .Autocfd_perfmodel.Model.time
      in
      fst
        (List.fold_left
           (fun (best, bt) parts ->
             let tm = time parts in
             if tm < bt then (parts, tm) else (best, bt))
           (first, time first)
           (List.tl candidates))

(* the paper's "redefining the sizes of arrays": display the status-array
   declarations resized to the local block plus ghost planes (the
   simulator itself allocates full arrays and restricts computation by
   loop bounds, which is value-equivalent) *)
let resized_decls plan =
  let gi = plan.source.gi in
  let halo_depth name g =
    List.fold_left
      (fun acc (grp : S.Combine.group) ->
        List.fold_left
          (fun acc (t : Ast.transfer) ->
            if t.Ast.xfer_array = name && t.Ast.xfer_dim = g then
              max acc t.Ast.xfer_depth
            else acc)
          acc grp.S.Combine.gr_transfers)
      1 plan.opt.S.Optimizer.groups
  in
  List.map
    (fun d ->
      match A.Grid_info.find_status gi d.Ast.d_name with
      | None -> d
      | Some sa ->
          let dims =
            List.mapi
              (fun k (lo, hi) ->
                match
                  if k < sa.A.Grid_info.sa_rank then
                    sa.A.Grid_info.sa_dims.(k)
                  else None
                with
                | Some g when P.Topology.is_cut plan.topo g ->
                    let h = halo_depth d.Ast.d_name g in
                    ( Ast.Binop
                        (Ast.Sub, Ast.Var (Printf.sprintf "acfd_lo%d" g),
                         Ast.Const_int h),
                      Ast.Binop
                        (Ast.Add, Ast.Var (Printf.sprintf "acfd_hi%d" g),
                         Ast.Const_int h) )
                | _ -> (lo, hi))
              d.Ast.d_dims
          in
          { d with Ast.d_dims = dims })
    plan.spmd.Ast.u_decls

let spmd_source plan =
  let header =
    Printf.sprintf
      "c  Auto-CFD generated SPMD program\nc  partition: %s over grid %s\n\
       c  synchronization points: %d before optimization, %d after\nc\n"
      (P.Topology.shape_to_string (P.Topology.parts plan.topo))
      (P.Topology.shape_to_string (P.Topology.grid plan.topo))
      plan.opt.S.Optimizer.before plan.opt.S.Optimizer.after
  in
  let display = { plan.spmd with Ast.u_decls = resized_decls plan } in
  header
  ^ "c  status arrays are declared over the local block plus ghost planes\n"
  ^ "c  (acfd_lo/acfd_hi are the rank's demarcation bounds)\nc\n"
  ^ Pretty.unit_ display

let mpi_source plan =
  C.Mpi_backend.emit ~gi:plan.source.gi ~topo:plan.topo plan.spmd

type seq_result = {
  sq_output : string list;
  sq_arrays : (string * I.Value.arr) list;
  sq_flops : float;
}

(* per-flop charge of [machine] under the plan's per-rank working set
   (same calibration as the model-validation experiments) *)
let calibrated_flop_time machine plan =
  let module PM = Autocfd_perfmodel.Model in
  let points_per_rank =
    let g = P.Topology.grid plan.topo and p = P.Topology.parts plan.topo in
    Array.to_list (Array.mapi (fun d _ -> (g.(d) + p.(d) - 1) / p.(d)) g)
    |> List.fold_left ( * ) 1
  in
  let ws = PM.working_set_bytes ~gi:plan.source.gi ~points_per_rank in
  PM.memory_slowdown machine ws /. machine.PM.flop_rate

let run_seq ?(spec = Runspec.default) t =
  let st =
    I.Compile.create ~input:spec.Runspec.input (I.Compile.of_unit t.inlined)
  in
  I.Compile.run st;
  {
    sq_output = I.Compile.output st;
    sq_arrays =
      List.map (fun n -> (n, I.Compile.array st n)) (I.Compile.array_names st);
    sq_flops = I.Compile.flops st;
  }

let config ?(spec = Runspec.default) plan =
  let net, flop_time =
    match spec.Runspec.machine with
    | Some m ->
        (m.Autocfd_perfmodel.Model.net, calibrated_flop_time m plan)
    | None -> (Autocfd_mpsim.Netmodel.fast, 0.0)
  in
  {
    I.Spmd.gi = plan.source.gi;
    topo = plan.topo;
    net;
    flop_time;
    input = spec.Runspec.input;
    tracer = spec.Runspec.tracer;
    faults = spec.Runspec.faults;
    recovery = spec.Runspec.recovery;
  }

let run ?(spec = Runspec.default) plan =
  I.Spmd.run ~engine:spec.Runspec.engine (config ~spec plan) plan.spmd

let max_divergence seq par =
  List.filter_map
    (fun (name, arr) ->
      match List.assoc_opt name par.I.Spmd.gathered with
      | Some parr -> Some (name, I.Value.max_abs_diff arr parr)
      | None -> None)
    seq.sq_arrays
