(* Perf-regression baseline gate over BENCH_tables.json documents.

   A baseline is a committed copy of a previous bench run; the gate
   re-derives the current document and compares every gated field
   direction-aware: lower-better (modelled times, sync counts after
   optimization), higher-better (speedups, efficiencies, fused loop
   counts), closest-to-one (model-validation ratio) and must-be-true
   booleans (engine identity, chaos recovery).

   Fields fall into two noise classes.  Modelled tables (1-5), the model
   validation and the resilience overheads are computed on the virtual
   clock — deterministic given the code — so they gate with the tight
   [tolerance].  The engine benchmark's speedup is a ratio of host
   wall-clock measurements and varies run to run and machine to machine,
   so it gates with the generous [wall_tolerance].  Absolute wall-clock
   seconds (engine [fused_s]/[domains_s], sweep elapsed) are never gated
   at all — a committed baseline crosses machines. *)

module J = Autocfd_obs.Json

type direction =
  | Lower_better
  | Higher_better
  | Near_one  (** drift from 1.0 must not grow beyond the allowance *)
  | Must_be_true

type noise = Deterministic | Wallclock

type rule = { ru_field : string; ru_dir : direction; ru_noise : noise }

type failure = {
  bf_table : string;
  bf_row : string;
  bf_field : string;
  bf_reason : string;
}

let r field dir noise = { ru_field = field; ru_dir = dir; ru_noise = noise }

(* (table key, identity fields, gated fields) *)
let gated_tables =
  [
    ( "table1",
      [ "program"; "partition" ],
      [ r "after" Lower_better Deterministic ] );
    ( "table2",
      [ "procs"; "partition" ],
      [
        r "time" Lower_better Deterministic;
        r "speedup" Higher_better Deterministic;
        r "efficiency" Higher_better Deterministic;
      ] );
    ( "table3",
      [ "procs"; "partition" ],
      [
        r "time" Lower_better Deterministic;
        r "speedup" Higher_better Deterministic;
        r "efficiency" Higher_better Deterministic;
      ] );
    ( "table4",
      [ "grid" ],
      [
        r "t1" Lower_better Deterministic;
        r "t2" Lower_better Deterministic;
        r "speedup" Higher_better Deterministic;
        r "efficiency" Higher_better Deterministic;
      ] );
    ( "table5",
      [ "procs"; "partition" ],
      [
        r "time" Lower_better Deterministic;
        r "eff_over_2" Higher_better Deterministic;
      ] );
    ( "validation",
      [ "grid"; "partition" ],
      [ r "ratio" Near_one Deterministic ] );
    ( "engine",
      [ "program"; "partition" ],
      [
        r "domains_speedup" Higher_better Wallclock;
        r "loops_fused" Higher_better Deterministic;
        r "domains_identical" Must_be_true Deterministic;
      ] );
    ( "resilience",
      [ "program"; "schedule" ],
      [
        r "overhead" Lower_better Deterministic;
        r "identical" Must_be_true Deterministic;
      ] );
  ]

let scalar_text = function
  | J.Str s -> s
  | J.Int i -> string_of_int i
  | J.Float f -> Printf.sprintf "%g" f
  | J.Bool b -> string_of_bool b
  | J.Null -> "null"
  | v -> J.to_string v

let row_id id_fields row =
  String.concat " "
    (List.map
       (fun f ->
         let v =
           Option.value ~default:J.Null (J.member f row)
         in
         Printf.sprintf "%s=%s" f (scalar_text v))
       id_fields)

let num = function
  | J.Int i -> Some (float_of_int i)
  | J.Float f -> Some f
  | _ -> None

let check_field ~tolerance ~wall_tolerance ~table ~row_label rule base cur =
  let tol =
    match rule.ru_noise with
    | Deterministic -> tolerance
    | Wallclock -> wall_tolerance
  in
  let fail reason =
    Some
      {
        bf_table = table;
        bf_row = row_label;
        bf_field = rule.ru_field;
        bf_reason = reason;
      }
  in
  match rule.ru_dir with
  | Must_be_true -> (
      match cur with
      | J.Bool true -> None
      | J.Bool false -> fail "expected true, got false"
      | _ -> fail "expected a boolean")
  | dir -> (
      match (num base, num cur) with
      | None, _ | _, None -> None (* null / non-numeric: not gated *)
      | Some b, Some c -> (
          match dir with
          | Lower_better ->
              let limit = b *. (1.0 +. tol) in
              if c > limit then
                fail
                  (Printf.sprintf "%g above baseline %g (limit %g, +%g%%)" c b
                     limit (100.0 *. tol))
              else None
          | Higher_better ->
              let limit = b *. (1.0 -. tol) in
              if c < limit then
                fail
                  (Printf.sprintf "%g below baseline %g (limit %g, -%g%%)" c b
                     limit (100.0 *. tol))
              else None
          | Near_one ->
              (* the drift from the ideal 1.0 may not grow beyond the
                 baseline's drift plus the allowance *)
              let limit = Float.abs (b -. 1.0) +. tol in
              if Float.abs (c -. 1.0) > limit then
                fail
                  (Printf.sprintf
                     "drift |%g - 1| exceeds baseline drift |%g - 1| + %g" c b
                     tol)
              else None
          | Must_be_true -> None))

let rows_of table_key doc =
  match J.member table_key doc with
  | Some (J.List rows) -> Some rows
  | _ -> None

let compare_tables ?(tolerance = 0.05) ?(wall_tolerance = 0.5) ~baseline
    ~current () =
  let failures = ref [] in
  let add = function Some f -> failures := f :: !failures | None -> () in
  List.iter
    (fun (table, id_fields, rules) ->
      match (rows_of table baseline, rows_of table current) with
      | None, _ ->
          (* table absent from the baseline: nothing to gate against *)
          ()
      | Some _, None ->
          add
            (Some
               {
                 bf_table = table;
                 bf_row = "-";
                 bf_field = "-";
                 bf_reason = "table missing from the current document";
               })
      | Some brows, Some crows ->
          List.iter
            (fun brow ->
              let label = row_id id_fields brow in
              match
                List.find_opt (fun crow -> row_id id_fields crow = label) crows
              with
              | None ->
                  add
                    (Some
                       {
                         bf_table = table;
                         bf_row = label;
                         bf_field = "-";
                         bf_reason = "row missing from the current document";
                       })
              | Some crow ->
                  List.iter
                    (fun rule ->
                      match
                        ( J.member rule.ru_field brow,
                          J.member rule.ru_field crow )
                      with
                      | Some bv, Some cv ->
                          add
                            (check_field ~tolerance ~wall_tolerance ~table
                               ~row_label:label rule bv cv)
                      | _ -> () (* field absent on either side: not gated *))
                    rules)
            brows)
    gated_tables;
  List.rev !failures

let render_failures = function
  | [] -> "baseline gate: OK (no regressions)\n"
  | fs ->
      let b = Buffer.create 256 in
      List.iter
        (fun f ->
          Buffer.add_string b
            (Printf.sprintf "REGRESSION %s [%s] %s: %s\n" f.bf_table f.bf_row
               f.bf_field f.bf_reason))
        fs;
      Buffer.add_string b
        (Printf.sprintf "baseline gate: %d regression%s\n" (List.length fs)
           (if List.length fs = 1 then "" else "s"));
      Buffer.contents b
