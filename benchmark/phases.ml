(* A phase-by-phase replica of Driver.load and Driver.plan, timed from
   the outside around each library call.  It calls the same functions in
   the same order as Driver does; [check] confirms that its SPMD unit
   pretty-prints identically to Driver.plan's, so the replica cannot
   drift from Driver unnoticed. *)

open Autocfd_fortran
module A = Autocfd_analysis
module S = Autocfd_syncopt
module P = Autocfd_partition
module C = Autocfd_codegen
module D = Autocfd.Driver
module Runspec = Autocfd.Runspec

(* pre-compiler phases in the order an op runs them, named by library *)
let names =
  [
    "fortran.parse"; "analysis.grid_info"; "fortran.inline";
    "analysis.fission"; "partition.topology"; "analysis.loops";
    "analysis.field_loop"; "analysis.sldp"; "syncopt.layout";
    "syncopt.optimize"; "codegen.transform"; "codegen.mpi_emit";
    "interp.lower";
  ]

type t = (string, float) Hashtbl.t  (* phase -> accumulated seconds *)

let create () : t = Hashtbl.create 16

let timed (acc : t) name f =
  let v, dt = Stats.time f in
  Hashtbl.replace acc name
    (dt +. Option.value ~default:0.0 (Hashtbl.find_opt acc name));
  v

let get (acc : t) name = Option.value ~default:0.0 (Hashtbl.find_opt acc name)

let load acc (spec : Runspec.t) source : D.t =
  let program = timed acc "fortran.parse" (fun () -> Parser.parse source) in
  let gi = timed acc "analysis.grid_info" (fun () -> A.Grid_info.of_program program) in
  let inlined = timed acc "fortran.inline" (fun () -> Inline.program program) in
  let inlined, splits =
    timed acc "analysis.fission" (fun () ->
        if spec.Runspec.fission then A.Fission.distribute inlined
        else (inlined, []))
  in
  { D.program; inlined; gi; splits }

let plan acc (spec : Runspec.t) (t : D.t) : D.plan =
  let parts =
    match spec.Runspec.parts with
    | Some p -> p
    | None -> D.auto_parts t ~nprocs:spec.Runspec.nprocs
  in
  let gi = t.D.gi in
  let topo =
    timed acc "partition.topology" (fun () ->
        P.Topology.create ~grid:gi.A.Grid_info.grid ~parts)
  in
  let loops = timed acc "analysis.loops" (fun () -> A.Loops.build t.D.inlined) in
  let summaries =
    timed acc "analysis.field_loop" (fun () ->
        A.Field_loop.analyze_unit gi t.D.inlined)
  in
  let sldp =
    timed acc "analysis.sldp" (fun () -> A.Sldp.compute gi topo loops summaries)
  in
  let layout = timed acc "syncopt.layout" (fun () -> S.Layout.of_unit t.D.inlined) in
  let opt =
    timed acc "syncopt.optimize" (fun () ->
        S.Optimizer.run ~combine:spec.Runspec.combine sldp ~layout)
  in
  let input : C.Transform.input =
    {
      C.Transform.in_unit = t.D.inlined;
      in_gi = gi;
      in_topo = topo;
      in_summaries = summaries;
      in_groups = opt.S.Optimizer.groups;
      in_layout = layout;
    }
  in
  let strategies, spmd =
    timed acc "codegen.transform" (fun () ->
        let strategies = C.Transform.strategies input in
        (strategies, C.Transform.run input))
  in
  { D.source = t; topo; summaries; sldp; layout; opt; strategies; spmd }

let mpi_source acc plan = timed acc "codegen.mpi_emit" (fun () -> D.mpi_source plan)

let lower acc (plan : D.plan) =
  timed acc "interp.lower" (fun () ->
      Autocfd_interp.Compile.compile ~fuse:true plan.D.spmd)

let predict acc (plan : D.plan) =
  timed acc "perfmodel.predict" (fun () ->
      Autocfd_perfmodel.Model.predict_parallel Autocfd.Experiments.machine
        ~gi:plan.D.source.D.gi ~topo:plan.D.topo plan.D.spmd)

(* the replica's SPMD unit must print exactly as Driver.plan's *)
let check spec source (plan : D.plan) =
  let reference = D.plan ~spec (D.load ~spec source) in
  Pretty.unit_ plan.D.spmd = Pretty.unit_ reference.D.spmd
