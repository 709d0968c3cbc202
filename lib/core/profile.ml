(* Kernel-level profiler: run one plan traced, attribute virtual compute
   time to named field-loop nests, and render the hot-nest table and
   per-sync-point latency histograms that the [autocfd profile] verb
   prints. *)

module Obs = Autocfd_obs
module I = Autocfd_interp
module J = Obs.Json

type t = {
  pf_label : string;
  pf_result : I.Spmd.result;
  pf_metrics : Obs.Metrics.t;
}

let run ?(spec = Runspec.default) ?(label = "profile") plan =
  let tracer =
    match spec.Runspec.tracer with
    | Some tr -> tr
    | None -> Obs.Trace.create ()
  in
  let machine =
    Option.value spec.Runspec.machine
      ~default:Autocfd_perfmodel.Model.pentium_cluster
  in
  let spec =
    spec
    |> Runspec.with_machine (Some machine)
    |> Runspec.with_tracer (Some tracer)
  in
  let result = Driver.run ~spec plan in
  {
    pf_label = label;
    pf_result = result;
    pf_metrics = Obs.Metrics.of_trace tracer;
  }

let compute_seconds p =
  Array.fold_left
    (fun acc r -> acc +. r.Obs.Metrics.rr_compute)
    0.0 p.pf_metrics.Obs.Metrics.ranks

let attributed_seconds p =
  List.fold_left
    (fun acc k -> acc +. k.Obs.Metrics.kr_self)
    0.0 p.pf_metrics.Obs.Metrics.kernels

let attributed_flops p =
  List.fold_left
    (fun acc k -> acc +. k.Obs.Metrics.kr_flops)
    0.0 p.pf_metrics.Obs.Metrics.kernels

let coverage p =
  let c = compute_seconds p in
  if c > 0.0 then attributed_seconds p /. c
  else
    let flops = Array.fold_left ( +. ) 0.0 p.pf_result.I.Spmd.flops_per_rank in
    if flops > 0.0 then attributed_flops p /. flops else 1.0

(* a sync point's mean execution latency and its nonzero latency buckets,
   each as (upper bound, or None for the +Inf overflow; count) *)
let mean (s : Obs.Metrics.sync_row) =
  s.Obs.Metrics.sr_phase_time /. float_of_int (max 1 s.Obs.Metrics.sr_executions)

let latency_buckets (s : Obs.Metrics.sync_row) =
  let bounds = Obs.Registry.seconds_buckets in
  Array.to_list s.Obs.Metrics.sr_latency
  |> List.mapi (fun i c ->
         ((if i < Array.length bounds then Some bounds.(i) else None), c))
  |> List.filter (fun (_, c) -> c > 0)

let fmt_si v =
  if v = 0.0 then "0"
  else if Float.abs v >= 1e9 then Printf.sprintf "%.2fG" (v /. 1e9)
  else if Float.abs v >= 1e6 then Printf.sprintf "%.2fM" (v /. 1e6)
  else if Float.abs v >= 1e3 then Printf.sprintf "%.2fk" (v /. 1e3)
  else Printf.sprintf "%.3g" v

let fmt_seconds v =
  if v = 0.0 then "0"
  else if v >= 1.0 then Printf.sprintf "%.3fs" v
  else if v >= 1e-3 then Printf.sprintf "%.3fms" (v *. 1e3)
  else Printf.sprintf "%.3gus" (v *. 1e6)

type nest_group = {
  ng_nest : Obs.Metrics.kernel_row;
  ng_frags : Obs.Metrics.kernel_row list;
}

(* "L12 do j,i #2/3" -> "L12 do j,i" *)
let strip_frag name =
  match String.rindex_opt name '#' with
  | Some i when i >= 1 && name.[i - 1] = ' ' -> String.sub name 0 (i - 1)
  | _ -> name

(* Fold the flat kernel table into per-source-nest groups: fragments the
   loop-fission pass split out of one source nest (kr_nfrags > 0, same
   source line) collapse under a synthesized aggregate row so the
   hot-nest table ranks source nests, with the fragments as indented
   children.  The aggregate sums self time / flops / bytes; calls is the
   max over fragments (each fragment executes once per source-nest
   execution, so the max is the source nest's call count even if some
   fragment was skipped). *)
let nest_groups p =
  let split, whole =
    List.partition
      (fun (k : Obs.Metrics.kernel_row) -> k.Obs.Metrics.kr_nfrags > 0)
      p.pf_metrics.Obs.Metrics.kernels
  in
  let by_line = Hashtbl.create 8 in
  List.iter
    (fun (k : Obs.Metrics.kernel_row) ->
      let line = k.Obs.Metrics.kr_line in
      Hashtbl.replace by_line line
        (k :: Option.value ~default:[] (Hashtbl.find_opt by_line line)))
    split;
  let groups =
    Hashtbl.fold
      (fun _ frags acc ->
        let frags =
          List.sort
            (fun (a : Obs.Metrics.kernel_row) b ->
              compare a.Obs.Metrics.kr_frag b.Obs.Metrics.kr_frag)
            frags
        in
        let f0 = List.hd frags in
        let sum get = List.fold_left (fun a k -> a +. get k) 0.0 frags in
        let nest =
          {
            Obs.Metrics.kr_name = strip_frag f0.Obs.Metrics.kr_name;
            kr_line = f0.Obs.Metrics.kr_line;
            kr_fused =
              List.for_all (fun k -> k.Obs.Metrics.kr_fused) frags;
            kr_frag = 0;
            kr_nfrags = f0.Obs.Metrics.kr_nfrags;
            kr_calls =
              List.fold_left
                (fun a k -> max a k.Obs.Metrics.kr_calls)
                0 frags;
            kr_flops = sum (fun k -> k.Obs.Metrics.kr_flops);
            kr_bytes = sum (fun k -> k.Obs.Metrics.kr_bytes);
            kr_self = sum (fun k -> k.Obs.Metrics.kr_self);
          }
        in
        { ng_nest = nest; ng_frags = frags } :: acc)
      by_line []
  in
  let groups =
    groups
    @ List.map (fun k -> { ng_nest = k; ng_frags = [] }) whole
  in
  List.sort
    (fun a b ->
      match compare b.ng_nest.Obs.Metrics.kr_self a.ng_nest.Obs.Metrics.kr_self
      with
      | 0 -> (
          match
            compare b.ng_nest.Obs.Metrics.kr_flops
              a.ng_nest.Obs.Metrics.kr_flops
          with
          | 0 ->
              compare a.ng_nest.Obs.Metrics.kr_line
                b.ng_nest.Obs.Metrics.kr_line
          | c -> c)
      | c -> c)
    groups

let hot_nests ?(top = 10) p =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  take top (nest_groups p)

let render ?(top = 10) p =
  let b = Buffer.create 4096 in
  let m = p.pf_metrics in
  let pr fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let compute = compute_seconds p in
  let nranks = Array.length m.Obs.Metrics.ranks in
  (* the run's own counts, as run, trace and report print them *)
  let stats = p.pf_result.I.Spmd.stats in
  pr "# profile: %s\n\n" p.pf_label;
  pr "ranks %d, %s elapsed %s; compute %s, messages %d, bytes %d\n\n"
    nranks
    (if m.Obs.Metrics.wall then "wall-clock" else "simulated")
    (fmt_seconds m.Obs.Metrics.elapsed)
    (fmt_seconds compute) stats.Autocfd_mpsim.Sim.messages
    stats.Autocfd_mpsim.Sim.bytes;
  (* -- hot nests ---------------------------------------------------- *)
  let groups = nest_groups p in
  let shown = hot_nests ~top p in
  pr "## hot nests (top %d of %d by self time)\n\n" (List.length shown)
    (List.length groups);
  pr "| nest | line | fused | calls | self | %% compute | flop/s | B/s |\n";
  pr "|---|---|---|---|---|---|---|---|\n";
  let row name (k : Obs.Metrics.kernel_row) =
    (* a run that charged no virtual compute has no share to show *)
    let share =
      if compute > 0.0 then
        Printf.sprintf "%5.1f%%" (100.0 *. k.Obs.Metrics.kr_self /. compute)
      else "-"
    in
    let rate den v = if den > 0.0 then fmt_si (v /. den) else "-" in
    pr "| %s | %d | %s | %d | %s | %s | %s | %s |\n" name
      k.Obs.Metrics.kr_line
      (if k.Obs.Metrics.kr_fused then "yes" else "no")
      k.Obs.Metrics.kr_calls
      (fmt_seconds k.Obs.Metrics.kr_self)
      share
      (rate k.Obs.Metrics.kr_self k.Obs.Metrics.kr_flops)
      (rate k.Obs.Metrics.kr_self k.Obs.Metrics.kr_bytes)
  in
  List.iter
    (fun g ->
      row g.ng_nest.Obs.Metrics.kr_name g.ng_nest;
      (* fission fragments: indented children of the source nest *)
      List.iter
        (fun (k : Obs.Metrics.kernel_row) ->
          row
            (Printf.sprintf "  ↳ #%d/%d" k.Obs.Metrics.kr_frag
               k.Obs.Metrics.kr_nfrags)
            k)
        g.ng_frags)
    shown;
  pr "\nattributed: %.1f%% of compute time across %d named nests\n\n"
    (100.0 *. coverage p) (List.length groups);
  (* -- per-sync latency --------------------------------------------- *)
  if m.Obs.Metrics.syncs <> [] then begin
    pr "## sync-point latency\n\n";
    List.iter
      (fun (s : Obs.Metrics.sync_row) ->
        pr "sync %d %s — %d executions, mean %s, max %s\n" s.Obs.Metrics.sr_id
          s.Obs.Metrics.sr_label s.Obs.Metrics.sr_executions
          (fmt_seconds (mean s)) (fmt_seconds s.Obs.Metrics.sr_max);
        let buckets = latency_buckets s in
        let peak = List.fold_left (fun a (_, c) -> max a c) 1 buckets in
        List.iter
          (fun (le, c) ->
            let le =
              match le with Some v -> "<= " ^ fmt_seconds v | None -> "   +Inf"
            in
            pr "  %-12s %6d  %s\n" le c (String.make (max 1 (c * 24 / peak)) '#'))
          buckets;
        pr "\n")
      m.Obs.Metrics.syncs
  end;
  Buffer.contents b

let kernel_json compute (k : Obs.Metrics.kernel_row) =
  [
    ("name", J.Str k.Obs.Metrics.kr_name);
    ("line", J.Int k.Obs.Metrics.kr_line);
    ("fused", J.Bool k.Obs.Metrics.kr_fused);
    ("calls", J.Int k.Obs.Metrics.kr_calls);
    ("flops", J.Float k.Obs.Metrics.kr_flops);
    ("bytes", J.Float k.Obs.Metrics.kr_bytes);
    ("self_seconds", J.Float k.Obs.Metrics.kr_self);
    ( "share",
      if compute > 0.0 then J.Float (k.Obs.Metrics.kr_self /. compute)
      else J.Null );
    ( "flops_per_second",
      if k.Obs.Metrics.kr_self > 0.0 then
        J.Float (k.Obs.Metrics.kr_flops /. k.Obs.Metrics.kr_self)
      else J.Null );
  ]

let nest_json compute g =
  J.Obj
    (kernel_json compute g.ng_nest
    @
    match g.ng_frags with
    | [] -> []
    | frags ->
        [
          ( "fragments",
            J.List
              (List.map
                 (fun (k : Obs.Metrics.kernel_row) ->
                   J.Obj
                     (("frag", J.Int k.Obs.Metrics.kr_frag)
                     :: ("nfrags", J.Int k.Obs.Metrics.kr_nfrags)
                     :: kernel_json compute k))
                 frags) );
        ])

let sync_json (s : Obs.Metrics.sync_row) =
  J.Obj
    [
      ("sync", J.Int s.Obs.Metrics.sr_id);
      ("label", J.Str s.Obs.Metrics.sr_label);
      ("executions", J.Int s.Obs.Metrics.sr_executions);
      ("mean", J.Float (mean s));
      ("max", J.Float s.Obs.Metrics.sr_max);
      ( "buckets",
        J.List
          (List.map
             (fun (le, c) ->
               J.Obj
                 [
                   ("le", match le with Some v -> J.Float v | None -> J.Null);
                   ("count", J.Int c);
                 ])
             (latency_buckets s)) );
    ]

let to_json ?(top = 10) p =
  let m = p.pf_metrics in
  let compute = compute_seconds p in
  J.Obj
    [
      ("schema", J.Str "autocfd-profile/1");
      ("label", J.Str p.pf_label);
      ("elapsed", J.Float m.Obs.Metrics.elapsed);
      ("compute_seconds", J.Float compute);
      ("attributed_seconds", J.Float (attributed_seconds p));
      ("coverage", J.Float (coverage p));
      ("nests", J.List (List.map (nest_json compute) (hot_nests ~top p)));
      ("sync_latency", J.List (List.map sync_json m.Obs.Metrics.syncs));
      ("metrics", Obs.Metrics.to_json m);
    ]
