module A = Autocfd_analysis
module S = Autocfd_syncopt
module P = Autocfd_partition
module M = Autocfd_perfmodel.Model
module I = Autocfd_interp
module J = Autocfd_obs.Json

(* ------------------------------------------------------------------ *)
(* Grids                                                               *)
(* ------------------------------------------------------------------ *)

type grid = Default | Wide

let grid_to_string = function Default -> "default" | Wide -> "wide"

let grid_of_string = function
  | "default" -> Ok Default
  | "wide" -> Ok Wide
  | s -> Error (Printf.sprintf "unknown tune grid %S (default|wide)" s)

(* one value list per orthogonal axis *)
type axes = {
  ax_nprocs : int list;
  ax_combine : S.Optimizer.combine_strategy list;
  ax_fission : bool list;
  ax_engine : I.Spmd.engine list;
}

let axes = function
  | Default ->
      {
        ax_nprocs = [ 2; 3; 4; 6 ];
        ax_combine = [ S.Optimizer.Optimal; S.Optimizer.First_fit ];
        ax_fission = [ true ];
        ax_engine = [ I.Spmd.Fused ];
      }
  | Wide ->
      {
        ax_nprocs = [ 2; 3; 4; 5; 6; 8 ];
        ax_combine = [ S.Optimizer.Optimal; S.Optimizer.First_fit ];
        ax_fission = [ true; false ];
        ax_engine = [ I.Spmd.Fused; I.Spmd.Domains ];
      }

let feasible_shapes t nprocs =
  let grid = t.Driver.gi.A.Grid_info.grid in
  P.Topology.factorizations nprocs (Array.length grid)
  |> List.filter (fun parts ->
         match P.Topology.create ~grid ~parts with
         | _ -> true
         | exception Invalid_argument _ -> false)

let points ?(base = Runspec.default) grid t =
  let ax = axes grid in
  List.concat_map
    (fun nprocs ->
      List.concat_map
        (fun parts ->
          List.concat_map
            (fun combine ->
              List.concat_map
                (fun fission ->
                  List.map
                    (fun engine ->
                      Runspec.(
                        base |> with_nprocs nprocs |> with_parts (Some parts)
                        |> with_combine combine |> with_fission fission
                        |> with_engine engine))
                    ax.ax_engine)
                ax.ax_fission)
            ax.ax_combine)
        (feasible_shapes t nprocs))
    ax.ax_nprocs

(* ------------------------------------------------------------------ *)
(* Point evaluation                                                    *)
(* ------------------------------------------------------------------ *)

type metrics = {
  tm_time : float;
  tm_comm : float;
  tm_mem : float;
  tm_wall : float option;
}

type entry = {
  te_spec : Runspec.t;
  te_parts : int array;
  te_metrics : metrics;
}

let measure_wall spec source =
  match Driver.load ~spec source with
  | exception _ -> None
  | t -> (
      match Driver.plan ~spec t with
      | exception Invalid_argument _ -> None
      | plan -> (
          match (Driver.run ~spec plan).I.Spmd.domains with
          | Some ds -> Some ds.I.Spmd.ds_wall
          | None -> None))

let eval ?measure_source ~machine ~source (spec : Runspec.t) =
  let t = Driver.load ~spec source in
  let plan = Driver.plan ~spec t in
  let gi = t.Driver.gi and topo = plan.Driver.topo in
  let census = M.census ~gi ~topo plan.Driver.spmd in
  let pred = M.predict_parallel machine ~gi ~topo plan.Driver.spmd in
  let wall =
    (* real wall clock only exists for the Domains engine, and only on
       an instance small enough to actually execute *)
    match (spec.Runspec.engine, measure_source) with
    | I.Spmd.Domains, Some msrc -> measure_wall spec msrc
    | _ -> None
  in
  {
    te_spec = spec;
    te_parts = P.Topology.parts topo;
    te_metrics =
      {
        tm_time = pred.M.time;
        tm_comm = census.M.exchange_bytes +. census.M.pipe_bytes;
        tm_mem = pred.M.working_set;
        tm_wall = wall;
      };
  }

(* ------------------------------------------------------------------ *)
(* JSON codec (tune job results travel through the sweep cache)        *)
(* ------------------------------------------------------------------ *)

let entry_to_json e =
  J.Obj
    [
      ("spec", Runspec.to_json e.te_spec);
      ("parts", J.Str (Runspec.parts_to_string e.te_parts));
      ("time", J.Float e.te_metrics.tm_time);
      ("comm", J.Float e.te_metrics.tm_comm);
      ("mem", J.Float e.te_metrics.tm_mem);
      ( "wall",
        match e.te_metrics.tm_wall with
        | Some w -> J.Float w
        | None -> J.Null );
    ]

let fail msg = raise (J.Parse_error ("Tune.entry_of_json: " ^ msg))

let jget name j =
  match J.member name j with
  | Some v -> v
  | None -> fail (Printf.sprintf "missing field %S" name)

let entry_of_json j =
  {
    te_spec = Runspec.of_json (jget "spec" j);
    te_parts =
      (match jget "parts" j with
      | J.Str s -> Runspec.parts_of_string s
      | _ -> fail "field \"parts\": expected a shape string");
    te_metrics =
      {
        tm_time = J.to_float_exn (jget "time" j);
        tm_comm = J.to_float_exn (jget "comm" j);
        tm_mem = J.to_float_exn (jget "mem" j);
        tm_wall =
          (match jget "wall" j with
          | J.Null -> None
          | v -> Some (J.to_float_exn v));
      };
  }

(* ------------------------------------------------------------------ *)
(* Pareto pruning                                                      *)
(* ------------------------------------------------------------------ *)

(* [wall] is informational (only some points have it measured), so
   dominance is judged on the three deterministic axes *)
let dominates a b =
  a.tm_time <= b.tm_time && a.tm_comm <= b.tm_comm && a.tm_mem <= b.tm_mem
  && (a.tm_time < b.tm_time || a.tm_comm < b.tm_comm || a.tm_mem < b.tm_mem)

let spec_key e = J.canonical (Runspec.to_json e.te_spec)

let triple m = (m.tm_time, m.tm_comm, m.tm_mem)

(* exact metric ties resolve toward the paper's default knobs (optimal
   combining, fission on) before the canonical spec JSON, so a tied
   winner reads as the least surprising configuration *)
let tiebreak e =
  let s = e.te_spec in
  (s.Runspec.combine <> S.Optimizer.Optimal, not s.Runspec.fission, spec_key e)

let compare_entry a b =
  compare
    (triple a.te_metrics, tiebreak a)
    (triple b.te_metrics, tiebreak b)

let frontier entries =
  let undominated =
    List.filter
      (fun e ->
        not
          (List.exists
             (fun o -> dominates o.te_metrics e.te_metrics)
             entries))
      entries
  in
  (* exact metric ties (e.g. engine variants of the same plan) collapse
     to one representative, preferring one with a measured wall clock *)
  let sorted = List.sort compare_entry undominated in
  let rec collapse = function
    | [] -> []
    | e :: rest ->
        let ties, rest =
          List.partition
            (fun o -> triple o.te_metrics = triple e.te_metrics)
            rest
        in
        let rep =
          match
            List.find_opt
              (fun o -> o.te_metrics.tm_wall <> None)
              (e :: ties)
          with
          | Some w -> w
          | None -> e
        in
        rep :: collapse rest
  in
  collapse sorted

let winner entries =
  match List.sort compare_entry entries with
  | [] -> invalid_arg "Tune.winner: no points"
  | e :: _ -> e

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  tr_program : string;
  tr_grid : grid;
  tr_total : int;
  tr_frontier : entry list;
  tr_winner : entry;
}

let make_result ~program ~grid entries =
  {
    tr_program = program;
    tr_grid = grid;
    tr_total = List.length entries;
    tr_frontier = frontier entries;
    tr_winner = winner entries;
  }

let result_to_json r =
  J.Obj
    [
      ("program", J.Str r.tr_program);
      ("grid", J.Str (grid_to_string r.tr_grid));
      ("points", J.Int r.tr_total);
      ("winner", entry_to_json r.tr_winner);
      ("frontier", J.List (List.map entry_to_json r.tr_frontier));
    ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let entry_row e =
  let s = e.te_spec in
  let open Autocfd_util.Table in
  [
    cell_int (Array.fold_left ( * ) 1 e.te_parts);
    Runspec.parts_to_string e.te_parts;
    Runspec.combine_to_string s.Runspec.combine;
    (if s.Runspec.fission then "on" else "off");
    Runspec.engine_to_string s.Runspec.engine;
    cell_float ~decimals:1 e.te_metrics.tm_time;
    cell_float ~decimals:0 (e.te_metrics.tm_comm /. 1024.);
    cell_float ~decimals:0 (e.te_metrics.tm_mem /. 1024.);
    (match e.te_metrics.tm_wall with
    | Some w -> cell_float ~decimals:3 w
    | None -> "-");
  ]

let headers =
  [
    "procs"; "partition"; "combine"; "fission"; "engine"; "time (s)";
    "comm (KB)"; "mem/rank (KB)"; "domains wall (s)";
  ]

let render r =
  let open Autocfd_util.Table in
  let t =
    create
      ~title:
        (Printf.sprintf
           "Auto-tune: %s, %s grid (%d points, %d on the Pareto frontier)"
           r.tr_program
           (grid_to_string r.tr_grid)
           r.tr_total
           (List.length r.tr_frontier))
      ~headers
  in
  List.iter (fun e -> add_row t (entry_row e)) r.tr_frontier;
  let w = r.tr_winner in
  render t
  ^ Printf.sprintf "winner: %s over %d ranks (%s, fission %s, %s): %.1f s\n"
      (Runspec.parts_to_string w.te_parts)
      (Array.fold_left ( * ) 1 w.te_parts)
      (Runspec.combine_to_string w.te_spec.Runspec.combine)
      (if w.te_spec.Runspec.fission then "on" else "off")
      (Runspec.engine_to_string w.te_spec.Runspec.engine)
      w.te_metrics.tm_time
