(* Repository benchmark: four workloads driven through the public library
   API, timed from the outside.  See README.md. *)

module J = Autocfd_obs.Json
module Sched = Autocfd_sched

let usage =
  {|usage:
  main.exe --workload NAME --seed N --seconds S --trace 0|1
  main.exe all --seed N [--seconds S] [--trace 0|1] [--runs R] [--out FILE]
  main.exe compare PARENT.json CHANGE.json [--bench BENCHMARK.json]
  main.exe summary [--commit ID] RESULTS.json...
  main.exe --smoke [--bench BENCHMARK.json]
  main.exe worker --connect ADDR|}

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 2)
    fmt

(* "--key value" options ("--smoke" takes no value) and positional words *)
let parse_args args =
  let is_opt k = String.starts_with ~prefix:"--" k in
  let rec go opts pos = function
    | "--smoke" :: rest -> go (("smoke", "") :: opts) pos rest
    | k :: v :: rest when is_opt k ->
        go ((String.sub k 2 (String.length k - 2), v) :: opts) pos rest
    | [ k ] when is_opt k -> die "%s needs a value\n%s" k usage
    | a :: rest -> go opts (a :: pos) rest
    | [] -> (opts, List.rev pos)
  in
  go [] [] args

let number of_string opts k default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> (
      match of_string v with
      | Some n -> n
      | None -> die "--%s: %S is not a number" k v)

let read_json path =
  try J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Sys_error e -> die "%s" e
  | J.Parse_error e -> die "%s: %s" path e

let member k j =
  match J.member k j with Some v -> v | None -> die "missing field %S" k

let str = function J.Str s -> s | _ -> die "expected a string"

(* ------------------------------------------------------------------ *)
(* One run of one workload: the command BENCHMARK.json names          *)
(* ------------------------------------------------------------------ *)

(* the metrics of the requested kind in catalogue order; a per-layer
   metric the workload did not produce belongs to a layer the workload
   leaves idle and reads 0 *)
let select ~trace produced =
  let wanted = if trace then Catalogue.per_layer else Catalogue.end_to_end in
  List.map
    (fun (x : Catalogue.metric) ->
      match List.assoc_opt x.name produced with
      | Some v -> (x.name, v, x.unit_)
      | None when trace -> (x.name, 0.0, x.unit_)
      | None -> die "workload produced no %s" x.name)
    wanted

let metrics_json metrics =
  J.Obj
    (List.map
       (fun (n, v, u) -> (n, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
       metrics)

let run_one opts workload =
  if not (List.mem workload Catalogue.workloads) then
    die "unknown workload %S (one of: %s)" workload
      (String.concat ", " Catalogue.workloads);
  let trace =
    match List.assoc_opt "trace" opts with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some v -> die "--trace: expected 0 or 1, got %S" v
  in
  let cfg =
    {
      Workloads.seed = number int_of_string_opt opts "seed" 1;
      seconds = number float_of_string_opt opts "seconds" 10.0;
      trace;
      small = false;
      workers = 2;
    }
  in
  let tally = Workloads.tally () in
  let metrics = select ~trace (Workloads.run workload cfg tally) in
  List.iter (fun e -> prerr_endline ("FAILED: " ^ e)) (List.rev tally.errors);
  List.iter
    (fun (n, v, _) ->
      if not (Float.is_finite v) then die "%s: %s is not finite" workload n)
    metrics;
  List.iter
    (fun (n, v, u) -> Printf.printf "%s %s %s\n" n (J.to_string (J.Float v)) u)
    metrics;
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (tally.failed = 0));
            ("attempted", J.Int tally.attempted);
            ("failed", J.Int tally.failed);
            ("metrics", metrics_json metrics);
          ]))

(* ------------------------------------------------------------------ *)
(* all: every workload, each in its own process, into a results file   *)
(* ------------------------------------------------------------------ *)

let runs_of path =
  match member "runs" (read_json path) with
  | J.List l -> l
  | _ -> die "%s: \"runs\" is not a list" path

let run_all opts =
  let seed = number int_of_string_opt opts "seed" 1 in
  let runs = number int_of_string_opt opts "runs" 1 in
  let seconds = Option.value ~default:"10" (List.assoc_opt "seconds" opts) in
  let trace = Option.value ~default:"0" (List.assoc_opt "trace" opts) in
  let out = Option.value ~default:"_benchmark/results.json" (List.assoc_opt "out" opts) in
  let previous = if Sys.file_exists out then runs_of out else [] in
  let records =
    List.concat_map
      (fun r ->
        List.map
          (fun w ->
            let seed = seed + r in
            let args =
              [| Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed;
                 "--seconds"; seconds; "--trace"; trace |]
            in
            let ic = Unix.open_process_args_in Sys.executable_name args in
            let lines =
              String.split_on_char '\n' (In_channel.input_all ic)
              |> List.filter (( <> ) "")
            in
            (match Unix.close_process_in ic with
            | Unix.WEXITED 0 when lines <> [] -> ()
            | _ -> die "workload %s (seed %d) failed" w seed);
            let result = J.of_string (List.nth lines (List.length lines - 1)) in
            List.iter (Printf.printf "%s %s\n%!" w) (List.rev (List.tl (List.rev lines)));
            match result with
            | J.Obj fields ->
                J.Obj
                  ([ ("workload", J.Str w); ("seed", J.Int seed);
                     ("trace", J.Int (int_of_string trace)) ]
                  @ fields)
            | _ -> die "workload %s printed no result object" w)
          Catalogue.workloads)
      (List.init runs Fun.id)
  in
  let dir = Filename.dirname out in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Sched.Cache.write_atomic ~path:out
    (J.pretty
       (J.Obj
          [
            ("schema", J.Str "autocfd-benchmark/1");
            ("nproc", J.Int (Domain.recommended_domain_count ()));
            ("runs", J.List (previous @ records));
          ]));
  Printf.printf "wrote %s\n" out

(* ------------------------------------------------------------------ *)
(* summary and compare over results files                              *)
(* ------------------------------------------------------------------ *)

(* (workload, metric) -> values in run order *)
let series runs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun run ->
      let w = str (member "workload" run) in
      match member "metrics" run with
      | J.Obj ms ->
          List.iter
            (fun (name, m) ->
              let v = J.to_float_exn (member "value" m) in
              let k = (w, name) in
              Hashtbl.replace tbl k (v :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
            ms
      | _ -> ())
    runs;
  Hashtbl.fold (fun k vs l -> (k, List.rev vs) :: l) tbl [] |> List.sort compare

let summary opts files =
  let set path =
    let runs = runs_of path in
    let by_workload =
      List.map
        (fun w ->
          ( w,
            J.Obj
              (List.filter_map
                 (fun ((w', name), vs) ->
                   if w' <> w then None
                   else
                     let q1, q3 = Stats.quartiles vs in
                     Some
                       ( name,
                         J.Obj
                           [ ("median", J.Float (Stats.median vs)); ("q1", J.Float q1);
                             ("q3", J.Float q3); ("n", J.Int (List.length vs)) ] ))
                 (series runs)) ))
        Catalogue.workloads
    in
    J.Obj
      [
        ("nproc", member "nproc" (read_json path));
        ("seeds", J.List (List.sort_uniq compare (List.map (member "seed") runs)));
        ("metrics", J.Obj by_workload);
      ]
  in
  print_endline
    (J.pretty
       (J.Obj
          [
            ("commit", J.Str (Option.value ~default:"unknown" (List.assoc_opt "commit" opts)));
            ("sets", J.List (List.map set files));
          ]))

type rule = { better : string; bound : float option }

let rules bench =
  let entries k =
    match member k bench with J.List l -> l | _ -> die "%s is not a list" k
  in
  List.map
    (fun e ->
      ( str (member "name" e),
        {
          better = str (member "better" e);
          bound = Option.map J.to_float_exn (J.member "bound" e);
        } ))
    (entries "end_to_end" @ entries "per_layer")

(* the pairing rule: improved needs at least 9/10 pairwise wins and a
   median gap wider than the parent's interquartile range; worse is a
   median worse by more than the bound; a parent spread wider than the
   bound leaves the metric unresolved *)
let verdict rule ~cores a b =
  let is_better x y = if rule.better = "lower" then x < y else x > y in
  let ma = Stats.median a and mb = Stats.median b in
  let q1, q3 = Stats.quartiles a in
  let n = min (List.length a) (List.length b) in
  let first l = List.filteri (fun i _ -> i < n) l in
  let pairs = List.combine (first a) (first b) in
  let wins = List.length (List.filter (fun (x, y) -> is_better y x) pairs) in
  let losses = List.length (List.filter (fun (x, y) -> is_better x y) pairs) in
  let gap = Float.abs (mb -. ma) > q3 -. q1 in
  let v =
    if not cores then "unresolved"
    else if 10 * wins >= 9 * n && gap && is_better mb ma then "improved"
    else
      match rule.bound with
      | None -> if 10 * losses >= 9 * n && gap then "worse" else "unchanged"
      | Some bound ->
          let worse_by =
            (if rule.better = "lower" then mb -. ma else ma -. mb) /. Float.abs ma
          in
          let all_better = List.for_all (fun y -> List.for_all (is_better y) a) b in
          if worse_by > bound then "worse"
          else if (q3 -. q1) /. Float.abs ma > bound && not all_better then "unresolved"
          else "unchanged"
  in
  (v, wins, n)

let compare_files opts pa pb =
  let rules =
    rules (read_json (Option.value ~default:"BENCHMARK.json" (List.assoc_opt "bench" opts)))
  in
  let nproc p = match member "nproc" (read_json p) with J.Int n -> n | _ -> 0 in
  let cores = min (nproc pa) (nproc pb) >= 2 in
  let ra = runs_of pa and rb = runs_of pb in
  let sa = series ra and sb = series rb in
  let worse = ref false in
  (* failed_ratio: timed ops that raised or failed their check *)
  let failed runs w =
    List.fold_left
      (fun (f, n) r ->
        match (member "workload" r, member "failed" r, member "attempted" r) with
        | J.Str w', J.Int f', J.Int n' when w' = w -> (f + f', n + n')
        | _ -> (f, n))
      (0, 0) runs
  in
  List.iter
    (fun w ->
      let fa, na = failed ra w and fb, nb = failed rb w in
      if fb * max na 1 > fa * max nb 1 then worse := true;
      Printf.printf "%-11s failed/attempted: parent %d/%d, change %d/%d\n" w fa na fb nb)
    Catalogue.workloads;
  Printf.printf "%-11s %-34s %-30s %-30s %-6s %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun ((w, name), a) ->
      match (List.assoc_opt (w, name) sb, List.assoc_opt name rules) with
      | Some b, Some rule ->
          let cores = cores || not (String.starts_with ~prefix:"shm.speedup" name) in
          let v, wins, n = verdict rule ~cores a b in
          if v = "worse" && rule.bound <> None then worse := true;
          let show xs =
            let q1, q3 = Stats.quartiles xs in
            Printf.sprintf "%.6g [%.6g, %.6g]" (Stats.median xs) q1 q3
          in
          Printf.printf "%-11s %-34s %-30s %-30s %-6s %s\n" w name (show a) (show b)
            (Printf.sprintf "%d/%d" wins n) v
      | _ -> ())
    sa;
  if !worse then exit 1

(* ------------------------------------------------------------------ *)
(* smoke: shrunk inputs, one round of each kind per workload            *)
(* ------------------------------------------------------------------ *)

let smoke opts =
  let path = Option.value ~default:"BENCHMARK.json" (List.assoc_opt "bench" opts) in
  let bench = read_json path in
  let declared k =
    match member k bench with
    | J.List l ->
        List.map
          (fun e ->
            (str (member "name" e), str (member "unit" e), str (member "better" e)))
          l
    | _ -> die "%s: %s is not a list" path k
  in
  let ours l =
    List.map
      (fun (x : Catalogue.metric) -> (x.name, x.unit_, Catalogue.better_to_string x.better))
      l
  in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if declared "end_to_end" <> ours Catalogue.end_to_end then
    problem "%s: end_to_end differs from the benchmark's catalogue" path;
  if declared "per_layer" <> ours Catalogue.per_layer then
    problem "%s: per_layer differs from the benchmark's catalogue" path;
  let declared_workloads =
    match member "workloads" bench with
    | J.List l -> List.map (fun e -> str (member "name" e)) l
    | _ -> []
  in
  if declared_workloads <> Catalogue.workloads then
    problem "%s: workloads differ from the benchmark's" path;
  let known =
    List.map (fun (x : Catalogue.metric) -> x.name) (Catalogue.end_to_end @ Catalogue.per_layer)
  in
  List.iter
    (fun w ->
      let cfg =
        { Workloads.seed = 1; seconds = 0.0; trace = true; small = true; workers = 1 }
      in
      let tally = Workloads.tally () in
      let produced, dt = Stats.time (fun () -> Workloads.run w cfg tally) in
      List.iter (problem "%s: %s" w) tally.errors;
      List.iter
        (fun (n, _) -> if not (List.mem n known) then problem "%s: unknown metric %s" w n)
        produced;
      List.iter
        (fun (n, v, _) ->
          if not (Float.is_finite v) then problem "%s: %s is not finite" w n)
        (select ~trace:false produced @ select ~trace:true produced);
      List.iter
        (fun (n, v, _) -> if v <= 0.0 then problem "%s: %s is not positive" w n)
        (select ~trace:false produced);
      Printf.printf "smoke %s: %d ops, %d failed, %d metrics, %.2f s\n%!" w
        tally.attempted tally.failed (List.length produced) dt)
    Catalogue.workloads;
  match !problems with
  | [] -> print_endline "smoke OK"
  | ps ->
      List.iter prerr_endline (List.rev ps);
      exit 1

(* One fabric worker process of the sweep workload.  The workload shuts
   its workers down before every round, and a worker exits only once its
   heartbeat thread wakes: at the default 1 s heartbeat that took 0.5 s a
   set-up, a short one takes a tenth of it. *)
let worker opts =
  (* the master's result line owns stdout *)
  Unix.dup2 Unix.stderr Unix.stdout;
  let addr = Option.value ~default:"" (List.assoc_opt "connect" opts) in
  match Sched.Fabric.addr_of_string addr with
  | Error e -> die "worker: %s" e
  | Ok addr -> (
      match
        Sched.Fabric.serve ~connect:addr ~heartbeat:0.1
          ~resolve:Autocfd.Experiments.exec_spec ()
      with
      | Ok () -> ()
      | Error e -> die "worker: %s" e)

let () =
  let opts, pos = parse_args (List.tl (Array.to_list Sys.argv)) in
  match (pos, List.assoc_opt "workload" opts) with
  | [], _ when List.mem_assoc "smoke" opts -> smoke opts
  | [], Some w -> run_one opts w
  | [ "all" ], None -> run_all opts
  | [ "compare"; a; b ], None -> compare_files opts a b
  | "summary" :: (_ :: _ as files), None -> summary opts files
  | [ "worker" ], None -> worker opts
  | _ -> die "%s" usage
