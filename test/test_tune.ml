(** Tests of the auto-tuner ({!Autocfd.Tune}) and the Runspec codec's
    cross-version compatibility.

    Pareto pruning is checked against hand-built entry sets: strict
    domination removes exactly the dominated points, exact ties never
    dominate each other (and collapse to one representative preferring a
    measured wall clock), and degenerate inputs where every point varies
    along a single axis reduce to a single-element frontier.  The codec
    test feeds a pre-tune Runspec document (no plan-time fields) through
    [of_json] and checks it decodes to the defaults and re-encodes to
    the current canonical form. *)

module T = Autocfd.Tune
module R = Autocfd.Runspec
module J = Autocfd_obs.Json

let entry ?(spec = R.default) ?(parts = [| 2; 2 |]) ?wall time comm mem =
  {
    T.te_spec = spec;
    T.te_parts = parts;
    T.te_metrics =
      { T.tm_time = time; T.tm_comm = comm; T.tm_mem = mem; T.tm_wall = wall };
  }

let metrics e = e.T.te_metrics

let test_dominates () =
  let a = metrics (entry 1.0 10.0 100.0) in
  let b = metrics (entry 2.0 20.0 200.0) in
  let tie = metrics (entry 1.0 10.0 100.0) in
  Alcotest.(check bool) "strictly better on all axes dominates" true
    (T.dominates a b);
  Alcotest.(check bool) "strictly worse does not dominate" false
    (T.dominates b a);
  Alcotest.(check bool) "exact tie does not dominate" false
    (T.dominates a tie);
  Alcotest.(check bool) "exact tie does not dominate (sym)" false
    (T.dominates tie a);
  (* better on one axis, equal on the rest: still dominates *)
  let c = metrics (entry 1.0 9.0 100.0) in
  Alcotest.(check bool) "single-axis improvement dominates" true
    (T.dominates c a);
  (* better on one axis, worse on another: incomparable *)
  let d = metrics (entry 0.5 50.0 100.0) in
  Alcotest.(check bool) "trade-off does not dominate (1)" false
    (T.dominates d a);
  Alcotest.(check bool) "trade-off does not dominate (2)" false
    (T.dominates a d)

let test_frontier_prunes_dominated () =
  let good = entry 1.0 10.0 100.0 in
  let dominated = entry 2.0 20.0 200.0 in
  let tradeoff = entry 0.5 50.0 300.0 in
  let f = T.frontier [ dominated; good; tradeoff ] in
  Alcotest.(check int) "only non-dominated survive" 2 (List.length f);
  Alcotest.(check bool) "no frontier entry dominates another" false
    (List.exists
       (fun e ->
         List.exists
           (fun o -> o != e && T.dominates (metrics o) (metrics e))
           f)
       f);
  (* report order: ascending time *)
  Alcotest.(check (list (float 0.0)))
    "sorted by time" [ 0.5; 1.0 ]
    (List.map (fun e -> (metrics e).T.tm_time) f)

let test_frontier_single_axis () =
  (* all points identical except one axis: the frontier degenerates to
     the single minimal point *)
  let times = [ 5.0; 3.0; 4.0; 3.5 ] in
  let f = T.frontier (List.map (fun t -> entry t 10.0 100.0) times) in
  Alcotest.(check int) "time-only frontier is one point" 1 (List.length f);
  Alcotest.(check (float 0.0)) "the minimum" 3.0
    (metrics (List.hd f)).T.tm_time;
  let f = T.frontier (List.map (fun c -> entry 1.0 c 100.0) times) in
  Alcotest.(check int) "comm-only frontier is one point" 1 (List.length f);
  let f = T.frontier (List.map (fun m -> entry 1.0 10.0 m) times) in
  Alcotest.(check int) "mem-only frontier is one point" 1 (List.length f)

let test_frontier_tie_collapse () =
  (* exact metric ties collapse to one representative, preferring a
     measured wall clock *)
  let plain = entry 1.0 10.0 100.0 in
  let walled = entry ~wall:0.25 1.0 10.0 100.0 in
  let f = T.frontier [ plain; walled ] in
  Alcotest.(check int) "tie collapses" 1 (List.length f);
  Alcotest.(check bool) "wall-measured representative" true
    ((metrics (List.hd f)).T.tm_wall = Some 0.25)

let test_winner_deterministic () =
  let a = entry ~parts:[| 4; 1 |] 1.0 10.0 100.0 in
  let b = entry ~parts:[| 1; 4 |] 1.0 5.0 100.0 in
  let w = T.winner [ a; b ] in
  Alcotest.(check (float 0.0)) "time tie broken by comm" 5.0
    (metrics w).T.tm_comm;
  (* default knobs win exact metric ties over non-default ones *)
  let ff =
    entry ~spec:R.(with_combine Autocfd_syncopt.Optimizer.First_fit default)
      1.0 10.0 100.0
  in
  let w = T.winner [ ff; a ] in
  Alcotest.(check bool) "optimal combining preferred on ties" true
    (w.T.te_spec.R.combine = Autocfd_syncopt.Optimizer.Optimal);
  Alcotest.check_raises "empty input"
    (Invalid_argument "Tune.winner: no points") (fun () ->
      ignore (T.winner []))

let heat_src =
  {|
c$acfd grid(ni, nj)
c$acfd status(u, unew)
      program heat
      parameter (ni = 20, nj = 10)
      real u(ni, nj), unew(ni, nj)
      integer i, j, iter
      do i = 1, ni
        do j = 1, nj
          u(i, j) = float(i + j)
        end do
      end do
      do iter = 1, 3
        do i = 2, ni - 1
          do j = 2, nj - 1
            unew(i,j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
          end do
        end do
        do i = 2, ni - 1
          do j = 2, nj - 1
            u(i, j) = unew(i, j)
          end do
        end do
      end do
      write(*,*) u(5,5)
      end
|}

let test_points_enumeration () =
  let t = Autocfd.Driver.load heat_src in
  let pts = T.points T.Default t in
  (* default grid: nprocs {2,3,4,6} x feasible 2-d factorizations x
     2 combine strategies; every point carries an explicit shape *)
  Alcotest.(check bool) "non-empty" true (pts <> []);
  List.iter
    (fun (s : R.t) ->
      match s.R.parts with
      | None -> Alcotest.fail "point without explicit shape"
      | Some p ->
          Alcotest.(check int) "shape matches nprocs" s.R.nprocs
            (Array.fold_left ( * ) 1 p))
    pts;
  (* all distinct as config points *)
  let keys = List.map (fun s -> J.canonical (R.to_json s)) pts in
  Alcotest.(check int) "points are distinct"
    (List.length keys)
    (List.length (List.sort_uniq compare keys))

let test_eval_deterministic () =
  let spec = R.(default |> with_parts (Some [| 2; 2 |])) in
  let eval () =
    T.entry_to_json
      (T.eval ~machine:Autocfd.Experiments.machine ~source:heat_src spec)
  in
  Alcotest.(check string) "eval is deterministic"
    (J.canonical (eval ())) (J.canonical (eval ()))

let test_entry_json_round_trip () =
  let e =
    T.eval ~machine:Autocfd.Experiments.machine ~source:heat_src
      R.(default |> with_parts (Some [| 2; 1 |]))
  in
  let e' = T.entry_of_json (T.entry_to_json e) in
  Alcotest.(check string) "entry survives the JSON round-trip"
    (J.canonical (T.entry_to_json e))
    (J.canonical (T.entry_to_json e'))

(* ------------------------------------------------------------------ *)
(* Runspec codec compatibility across versions                         *)
(* ------------------------------------------------------------------ *)

let plan_time_fields = [ "nprocs"; "parts"; "combine"; "fission" ]

let strip_plan_time = function
  | J.Obj fields ->
      J.Obj
        (List.filter (fun (n, _) -> not (List.mem n plan_time_fields)) fields)
  | j -> j

let test_runspec_backward_compat () =
  (* a document written by the pre-tune codec: no plan-time fields *)
  let old = strip_plan_time (R.to_json R.default) in
  let decoded = R.of_json old in
  Alcotest.(check int) "absent nprocs decodes to default" 4 decoded.R.nprocs;
  Alcotest.(check bool) "absent parts decodes to None" true
    (decoded.R.parts = None);
  Alcotest.(check bool) "absent combine decodes to Optimal" true
    (decoded.R.combine = Autocfd_syncopt.Optimizer.Optimal);
  Alcotest.(check bool) "absent fission decodes to true" true
    decoded.R.fission;
  (* and re-encodes to exactly the current canonical default *)
  Alcotest.(check string) "old document re-encodes to the v-next default"
    (J.canonical (R.to_json R.default))
    (J.canonical (R.to_json decoded));
  let fields = match old with J.Obj fields -> fields | _ -> assert false in
  (* the retired "fuse" key is ignored like any unknown key *)
  let stray = R.of_json (J.Obj (("fuse", J.Bool false) :: fields)) in
  Alcotest.(check string) "a stray \"fuse\" key is ignored"
    (J.canonical (R.to_json R.default)) (J.canonical (R.to_json stray));
  let replace key v =
    J.Obj (List.map (fun (n, x) -> if n = key then (n, v) else (n, x)) fields)
  in
  (* the retired engine names are errors, not aliases *)
  List.iter
    (fun name ->
      Alcotest.check_raises (name ^ " is no engine")
        (J.Parse_error
           ("Runspec.of_json: unknown engine \"" ^ name ^ "\" (fused|domains)"))
        (fun () -> ignore (R.of_json (replace "engine" (J.Str name)))))
    [ "tree"; "compiled" ];
  (* a retired cost field decodes at its old default only *)
  Alcotest.check_raises "a charged flop_time is an error naming machine"
    (J.Parse_error
       "Runspec.of_json: field \"flop_time\" is retired: set \"machine\" to \
        charge a network and per-flop cost")
    (fun () -> ignore (R.of_json (replace "flop_time" (J.Float 1e-8))))

let test_runspec_forward_round_trip () =
  (* a fully non-default v-next spec survives the round-trip *)
  let spec =
    R.(
      default
      |> with_engine Autocfd_interp.Spmd.Domains
      |> with_nprocs 6
      |> with_parts (Some [| 3; 2; 1 |])
      |> with_combine Autocfd_syncopt.Optimizer.First_fit
      |> with_fission false)
  in
  let spec' = R.of_json (R.to_json spec) in
  Alcotest.(check string) "v-next spec canonical round-trip"
    (J.canonical (R.to_json spec))
    (J.canonical (R.to_json spec'));
  Alcotest.(check bool) "parts decoded" true (spec'.R.parts = Some [| 3; 2; 1 |]);
  Alcotest.(check bool) "engine decoded" true
    (spec'.R.engine = Autocfd_interp.Spmd.Domains)

let test_parts_string_codec () =
  Alcotest.(check string) "parts_to_string" "3x2x1"
    (R.parts_to_string [| 3; 2; 1 |]);
  Alcotest.(check bool) "parts_of_string round-trip" true
    (R.parts_of_string "3x2x1" = [| 3; 2; 1 |]);
  Alcotest.check_raises "malformed shape raises"
    (J.Parse_error "Runspec.of_json: bad partition shape \"3xtwo\"")
    (fun () -> ignore (R.parts_of_string "3xtwo"));
  Alcotest.check_raises "non-positive part raises"
    (J.Parse_error "Runspec.of_json: bad partition shape \"0x2\"")
    (fun () -> ignore (R.parts_of_string "0x2"));
  Alcotest.(check bool) "case and blanks ignored, as on the CLI" true
    (R.parts_of_string " 3 X 2" = [| 3; 2 |])

let suite =
  [
    ("dominance relation", `Quick, test_dominates);
    ("frontier prunes dominated points", `Quick, test_frontier_prunes_dominated);
    ("single-axis degenerate frontiers", `Quick, test_frontier_single_axis);
    ("metric ties collapse, preferring wall", `Quick, test_frontier_tie_collapse);
    ("winner is deterministic", `Quick, test_winner_deterministic);
    ("point enumeration", `Quick, test_points_enumeration);
    ("eval is deterministic", `Quick, test_eval_deterministic);
    ("entry JSON round-trip", `Quick, test_entry_json_round_trip);
    ("runspec backward compatibility", `Quick, test_runspec_backward_compat);
    ("runspec v-next round-trip", `Quick, test_runspec_forward_round_trip);
    ("partition shape string codec", `Quick, test_parts_string_codec);
  ]
