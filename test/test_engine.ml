(** Golden equivalence of the execution engines.

    The closure IR ({!Autocfd_interp.Compile} with [~fuse:false]) and the
    fused-kernel tier on top of it must be bit-identical to the
    tree-walking interpreter ({!Autocfd_interp.Machine}; both references
    are reached through {!Oracle}) — not merely
    numerically close: gathered arrays, final scalars, WRITE output, flop
    counts and the full simulator statistics (message/byte/collective
    censuses, per-rank times) are compared with structural equality on
    every bundled application program and the heat2d example, over several
    partition shapes each.  A PRNG-driven property suite additionally
    generates random affine loop nests (including deliberate fall-back
    shapes: non-affine subscripts, IF bodies, zero-trip loops; and the
    dependences that decide whether a fused kernel runs as rows or the
    nest stays on the closure IR) and asserts the same three-way
    equivalence. *)

module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module R = Autocfd.Runspec
module I = Autocfd_interp
module Prng = Autocfd_util.Prng

(* the closure IR without and with fused kernels, each against the tree
   walker: (name, sequential run, SPMD run under a spec) *)
let engines =
  [
    ("compiled", Oracle.seq_unfused, fun s p -> Oracle.run_unfused ~spec:s p);
    ("fused", D.run_seq ?spec:None, fun spec plan -> D.run ~spec plan);
  ]

let shape parts =
  String.concat "x" (Array.to_list (Array.map string_of_int parts))

let check_array_list what name (a : (string * I.Value.arr) list)
    (b : (string * I.Value.arr) list) =
  Alcotest.(check (list string))
    (Printf.sprintf "%s: %s array names" name what)
    (List.map fst a) (List.map fst b);
  List.iter2
    (fun (arr_name, aa) (_, ab) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s %s bounds" name what arr_name)
        true
        (aa.I.Value.bounds = ab.I.Value.bounds);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s %s bit-identical" name what arr_name)
        true
        (aa.I.Value.data = ab.I.Value.data))
    a b

let check_sequential name src =
  let t = D.load src in
  let tree = Oracle.seq_tree t in
  List.iter
    (fun (ename, seq, _) ->
      let name = name ^ "/" ^ ename in
      let r = seq t in
      Alcotest.(check (list string))
        (name ^ ": output") tree.D.sq_output r.D.sq_output;
      Alcotest.(check (float 0.0))
        (name ^ ": flops") tree.D.sq_flops r.D.sq_flops;
      check_array_list "sequential" name tree.D.sq_arrays r.D.sq_arrays)
    engines

let check_parallel name src parts =
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec parts) t in
  let tree = Oracle.run_tree plan in
  List.iter
    (fun (ename, _, run) ->
      let r = run R.default plan in
      let ctx = Printf.sprintf "%s/%s %s" name ename (shape parts) in
      check_array_list "gathered" ctx tree.I.Spmd.gathered r.I.Spmd.gathered;
      Alcotest.(check bool)
        (ctx ^ ": scalars") true
        (tree.I.Spmd.scalars = r.I.Spmd.scalars);
      Alcotest.(check bool)
        (ctx ^ ": flops per rank") true
        (tree.I.Spmd.flops_per_rank = r.I.Spmd.flops_per_rank);
      Alcotest.(check (list string))
        (ctx ^ ": output") tree.I.Spmd.output r.I.Spmd.output;
      Alcotest.(check bool)
        (ctx ^ ": simulator stats") true
        (tree.I.Spmd.stats = r.I.Spmd.stats))
    engines

let check_both name src partitions =
  check_sequential name src;
  List.iter (check_parallel name src) partitions

(* the Domains engine runs for real on OCaml 5 domains: program state
   (gathered arrays, scalars, WRITE output, flop censuses) must be
   bit-identical to the simulator, but [stats] is measured wall clock and
   is excluded from the comparison *)
let check_domains ?(fuse = true) name src parts =
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec parts) t in
  let fused = D.run ~spec:(R.with_engine I.Spmd.Fused R.default) plan in
  let r =
    if fuse then D.run ~spec:(R.with_engine I.Spmd.Domains R.default) plan
    else Oracle.run_unfused ~engine:I.Spmd.Domains plan
  in
  let ctx =
    Printf.sprintf "%s/domains%s %s" name
      (if fuse then "" else " unfused")
      (shape parts)
  in
  check_array_list "gathered" ctx fused.I.Spmd.gathered r.I.Spmd.gathered;
  Alcotest.(check bool)
    (ctx ^ ": scalars") true
    (fused.I.Spmd.scalars = r.I.Spmd.scalars);
  Alcotest.(check bool)
    (ctx ^ ": flops per rank") true
    (fused.I.Spmd.flops_per_rank = r.I.Spmd.flops_per_rank);
  Alcotest.(check (list string))
    (ctx ^ ": output") fused.I.Spmd.output r.I.Spmd.output;
  match r.I.Spmd.domains with
  | None -> Alcotest.fail (ctx ^ ": missing domain_stats")
  | Some ds ->
      let nranks = Autocfd_partition.Topology.nranks plan.D.topo in
      Alcotest.(check int)
        (ctx ^ ": per-rank wall array") nranks
        (Array.length ds.I.Spmd.ds_rank_wall);
      Alcotest.(check bool)
        (ctx ^ ": nonzero wall clock") true (ds.I.Spmd.ds_wall > 0.0)

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_sprayer () =
  check_both "sprayer"
    (Autocfd_apps.Sprayer.source ~ni:36 ~nj:18 ~ntime:6 ~npsi:3 ())
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 3; 2 |] ]

let test_domains_sprayer () =
  List.iter
    (check_domains "sprayer"
       (Autocfd_apps.Sprayer.source ~ni:36 ~nj:18 ~ntime:6 ~npsi:3 ()))
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 3; 2 |] ]

let test_domains_aerofoil () =
  List.iter
    (check_domains "aerofoil"
       (Autocfd_apps.Aerofoil.source ~ni:16 ~nj:10 ~nk:6 ~ntime:3 ~npres:2 ()))
    [ [| 2; 1; 1 |]; [| 2; 2; 1 |]; [| 2; 2; 2 |] ]

let test_aerofoil () =
  check_both "aerofoil"
    (Autocfd_apps.Aerofoil.source ~ni:16 ~nj:10 ~nk:6 ~ntime:3 ~npres:2 ())
    [ [| 2; 1; 1 |]; [| 2; 2; 1 |]; [| 2; 2; 2 |] ]

let test_cavity () =
  check_both "cavity"
    (Autocfd_apps.Cavity.source ~n:17 ~maxit:5 ~npsi:3 ())
    [ [| 2; 1 |]; [| 2; 2 |]; [| 3; 3 |] ]

let heat2d_path () =
  (* cwd is _build/default/test under `dune runtest`, the project root
     under `dune exec test/main.exe` *)
  List.find Sys.file_exists [ "../examples/heat2d.f"; "examples/heat2d.f" ]

let test_heat2d () =
  check_both "heat2d"
    (read_file (heat2d_path ()))
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |] ]

let test_domains_heat2d () =
  check_domains "heat2d" (read_file (heat2d_path ())) [| 2; 2 |];
  (* the closure IR without fused kernels, on real domains *)
  check_domains ~fuse:false "heat2d" (read_file (heat2d_path ())) [| 2; 2 |]

(* flop-charge parity on a run with nontrivial timing: the simulated
   elapsed time is derived from the flop census, so charge drift would
   silently skew every timing table — compare with compute charging on *)
let test_charged_timing_identical () =
  let t =
    D.load (Autocfd_apps.Sprayer.source ~ni:30 ~nj:16 ~ntime:4 ~npsi:3 ())
  in
  let plan = D.plan ~spec:(parts_spec [| 2; 2 |]) t in
  let machine = Autocfd.Experiments.machine in
  let flop_time = D.calibrated_flop_time ~machine plan in
  let spec =
    R.(
      default
      |> with_net machine.Autocfd_perfmodel.Model.net
      |> with_flop_time flop_time)
  in
  let tree = Oracle.run_tree ~spec plan in
  List.iter
    (fun (ename, _, run) ->
      let r = run spec plan in
      Alcotest.(check bool)
        (ename ^ ": charged stats identical") true
        (tree.I.Spmd.stats = r.I.Spmd.stats);
      Alcotest.(check bool)
        (ename ^ ": elapsed bit-identical") true
        (tree.I.Spmd.stats.Autocfd_mpsim.Sim.elapsed
        = r.I.Spmd.stats.Autocfd_mpsim.Sim.elapsed))
    engines

(* ------------------------------------------------------------------ *)
(* PRNG-driven random affine-nest property suite                       *)
(* ------------------------------------------------------------------ *)

(* Random straight-line DO nests over fixed-shape arrays, mixing shapes
   the fused tier compiles (affine subscripts, constant and negative
   steps, scalar reductions) with shapes that must fall back at compile
   time (non-affine max0 subscripts, IF bodies) or at run time
   (zero-trip loops).  Each program also carries one row-path hazard
   (below).  Subscripts stay in range by construction, generated
   expressions avoid division/sqrt/log and every array assignment is
   wrapped in sin/cos (so values stay bounded and NaN-free); the three
   engines must then agree bit for bit on arrays, flops and output. *)

let lit_pool = [| "0.5"; "1.25"; "-0.75"; "2.0"; "0.125"; "3.0"; "-1.5" |]

(* subscript into a dimension of size [n] whose loop variable [v] (when
   in scope) ranges over [2, n-1] *)
let gen_sub rng v n =
  match v with
  | Some v -> (
      match Prng.int rng 5 with
      | 0 -> v ^ "-1"
      | 1 -> v ^ "+1"
      | 2 -> string_of_int (Prng.int_in rng 1 n)
      | _ -> v)
  | None -> string_of_int (Prng.int_in rng 1 n)

(* arrays: a(12,10), b(12,10), c(12); [vi]/[vj] are the loop variables
   covering dim 1 / dim 2 when in scope *)
let gen_read rng ~vi ~vj =
  match Prng.int rng 3 with
  | 0 -> Printf.sprintf "a(%s,%s)" (gen_sub rng vi 12) (gen_sub rng vj 10)
  | 1 -> Printf.sprintf "b(%s,%s)" (gen_sub rng vi 12) (gen_sub rng vj 10)
  | _ -> Printf.sprintf "c(%s)" (gen_sub rng vi 12)

let rec gen_expr rng ~vi ~vj ~depth =
  if depth = 0 || Prng.int rng 4 = 0 then
    match Prng.int rng 6 with
    | 0 | 1 -> Prng.choose rng lit_pool
    | 2 -> "s1"
    | 3 -> "s2"
    | 4 -> (
        match (vi, vj) with
        | Some v, _ | None, Some v -> "float(" ^ v ^ ")"
        | None, None -> Prng.choose rng lit_pool)
    | _ -> gen_read rng ~vi ~vj
  else
    let sub () = gen_expr rng ~vi ~vj ~depth:(depth - 1) in
    match Prng.int rng 8 with
    | 0 -> "(" ^ sub () ^ " + " ^ sub () ^ ")"
    | 1 -> "(" ^ sub () ^ " - " ^ sub () ^ ")"
    | 2 -> "(" ^ sub () ^ " * " ^ sub () ^ ")"
    | 3 -> "max(" ^ sub () ^ ", " ^ sub () ^ ")"
    | 4 -> "min(" ^ sub () ^ ", " ^ sub () ^ ")"
    | 5 -> "abs(" ^ sub () ^ ")"
    | 6 -> "sign(" ^ sub () ^ ", " ^ sub () ^ ")"
    | _ -> "sin(" ^ sub () ^ ")"

(* a bounded RHS: values stay in [-1, 1] no matter how nests cascade *)
let gen_rhs rng ~vi ~vj =
  let wrap = if Prng.bool rng then "sin" else "cos" in
  wrap ^ "(" ^ gen_expr rng ~vi ~vj ~depth:3 ^ ")"

let gen_assign rng ~vi ~vj ~indent buf =
  let lhs =
    match Prng.int rng 3 with
    | 0 -> Printf.sprintf "a(%s,%s)" (gen_sub rng vi 12) (gen_sub rng vj 10)
    | 1 -> Printf.sprintf "b(%s,%s)" (gen_sub rng vi 12) (gen_sub rng vj 10)
    | _ -> Printf.sprintf "c(%s)" (gen_sub rng vi 12)
  in
  Buffer.add_string buf
    (Printf.sprintf "%s%s = %s\n" indent lhs (gen_rhs rng ~vi ~vj))

let gen_nest rng buf =
  let add = Buffer.add_string buf in
  let header var lo hi step =
    match step with
    | None -> Printf.sprintf "do %s = %d, %d" var lo hi
    | Some s -> Printf.sprintf "do %s = %d, %d, %d" var lo hi s
  in
  match Prng.int rng 10 with
  | 0 | 1 | 2 | 3 ->
      (* fusable double nest, occasionally reversed or strided *)
      let istep =
        match Prng.int rng 4 with 0 -> Some (-1) | 1 -> Some 2 | _ -> None
      in
      let ilo, ihi = if istep = Some (-1) then (11, 2) else (2, 11) in
      add ("      " ^ header "i" ilo ihi istep ^ "\n");
      add "        do j = 2, 9\n";
      for _ = 1 to Prng.int_in rng 1 3 do
        gen_assign rng ~vi:(Some "i") ~vj:(Some "j") ~indent:"          " buf
      done;
      add "        enddo\n      enddo\n"
  | 4 | 5 ->
      (* fusable single-level nest over the 1-d array *)
      add ("      " ^ header "i" 2 11 (if Prng.bool rng then Some 3 else None));
      add "\n";
      gen_assign rng ~vi:(Some "i") ~vj:None ~indent:"        " buf;
      add "      enddo\n"
  | 6 ->
      (* scalar fold: rows along the source innermost j *)
      add "      do i = 2, 11\n        do j = 2, 9\n";
      if Prng.bool rng then
        add "          s1 = s1 + 0.01 * a(i,j)\n"
      else add "          s2 = max(s2, b(i,j))\n";
      add "        enddo\n      enddo\n"
  | 7 ->
      (* IF in the body: compile-time fallback *)
      add "      do i = 2, 11\n        do j = 2, 9\n";
      add "          if (a(i,j) .gt. 0.0) then\n";
      gen_assign rng ~vi:(Some "i") ~vj:(Some "j")
        ~indent:"            " buf;
      add "          endif\n";
      add "        enddo\n      enddo\n"
  | 8 ->
      (* non-affine subscript: compile-time fallback, still in range *)
      add "      do i = 2, 11\n";
      add
        (Printf.sprintf "        c(max0(i-1,1)) = %s\n"
           (gen_rhs rng ~vi:(Some "i") ~vj:None));
      add "      enddo\n"
  | _ ->
      (* zero-trip loop: fuses statically, falls back dynamically *)
      add "      do i = 8, 3\n        do j = 2, 9\n";
      gen_assign rng ~vi:(Some "i") ~vj:(Some "j") ~indent:"          " buf;
      add "        enddo\n      enddo\n"

(* Row-path hazards: nests whose loops carry (or seem to carry) a
   dependence, or that fold into a scalar, each with the path and row
   level the legality rule must pick.  Rows may run along any level
   whose move innermost keeps every dependence's leading sign; running
   statement by statement over a row then keeps forward and anti
   dependences within it and breaks the rest.  Of the legal levels the
   one with unit-stride [a(i,j)] wins.  With no level legal, rows may
   run along the anti-diagonal of two levels whose walk order keeps
   every dependence.  A fold runs along the source innermost level.  A
   nest no row keeps stays on the closure IR, and the reason is pinned.
   Their expressions read only [c(i)], [s1], [float(i)], [float(j)] and
   literals; only kind 18 writes one of them, [c(i)], whose unknown
   distances already keep it off the rows, so the outcome depends on the
   listed statements alone. *)
let hazard_kinds = 26

(* a nest's outcome: [Ok] its rows, [Error] why it stays on the closure
   IR *)
let along_i = Ok (I.Compile.Row 0)
let along_j = Ok (I.Compile.Row 1)
let diagonal = Ok (I.Compile.Diag (0, 1))
let carried = Error I.Compile.Carried_scalar
let int_assign = Error I.Compile.Int_scalar_assign
let unordered = Error I.Compile.No_row_order

let gen_hazard rng kind =
  let e () =
    let atom () =
      match Prng.int rng 5 with
      | 0 -> "c(i)"
      | 1 -> "s1"
      | 2 -> "float(j)"
      | 3 -> "float(i)"
      | _ -> Prng.choose rng lit_pool
    in
    Printf.sprintf "(%s %s %s)" (atom ())
      (if Prng.bool rng then "+" else "*")
      (atom ())
  in
  let f = Printf.sprintf in
  let inner = [ "do j = 2, 9" ] in
  match kind with
  | 0 ->
      (* self-carried flow along j: each point reads the previous
         point's write, so the rows run along i *)
      (along_i, inner, [ f "a(i,j) = cos(0.5 * a(i,j-1) + %s)" (e ()) ])
  | 1 ->
      (* backward cross-statement flow along j: the first statement
         reads what the second wrote one point earlier *)
      ( along_i, inner,
        [ f "b(i,j) = sin(a(i,j-1) + %s)" (e ()); f "a(i,j) = cos(%s)" (e ()) ] )
  | 2 ->
      (* self anti-dependence: the read precedes the write it meets *)
      (along_i, inner, [ f "a(i,j) = sin(a(i,j+1) + %s)" (e ()) ])
  | 3 ->
      (* forward anti and flow dependences across two statements *)
      ( along_i, inner,
        [ f "b(i,j) = cos(a(i,j+1) * %s)" (e ()); f "a(i,j) = sin(b(i,j) + %s)" (e ()) ] )
  | 4 ->
      (* scratch scalar read before its assignment: the previous point's *)
      ( carried, inner,
        [ f "b(i,j) = sin(t1 + %s)" (e ()); f "t1 = cos(a(i,j) * %s)" (e ()) ] )
  | 5 ->
      (* scratch scalar assigned, then read *)
      ( along_i, inner,
        [ f "t1 = cos(a(i,j) * %s)" (e ()); f "b(i,j) = sin(t1 + %s)" (e ()) ] )
  | 6 ->
      (* reduction into an array element: j is absent from the written
         subscripts, so rows along i never meet it twice *)
      (along_i, inner, [ f "c(i) = c(i) + 0.01 * sin(a(i,j) + %s)" (e ()) ])
  | 7 ->
      (* reversed j step: j+1 was written one point earlier, j-1 is
         written one point later; either way a row along i is free *)
      if Prng.bool rng then
        (along_i, [ "do j = 9, 2, -1" ], [ f "a(i,j) = sin(a(i,j+1) + %s)" (e ()) ])
      else (along_i, [ "do j = 9, 2, -1" ], [ f "a(i,j) = sin(a(i,j-1) + %s)" (e ()) ])
  | 8 ->
      (* strided j step, distance one stride *)
      if Prng.bool rng then
        (along_i, [ "do j = 4, 7, 3" ], [ f "a(i,j) = sin(a(i,j-3) + %s)" (e ()) ])
      else (along_i, [ "do j = 4, 7, 3" ], [ f "a(i,j) = sin(a(i,j+3) + %s)" (e ()) ])
  | 9 ->
      (* flow carried along i: the rows stay along j *)
      (along_j, inner, [ f "a(i,j) = cos(0.5 * a(i-1,j) + %s)" (e ()) ])
  | 10 ->
      (* distance (1, -1): running i innermost would read a(i-1,j+1)
         before it is written *)
      (along_j, inner, [ f "a(i,j) = cos(0.5 * a(i-1,j+1) + %s)" (e ()) ])
  | 11 ->
      (* flow carried along both levels: no single level keeps it, the
         anti-diagonals of (i, j) do *)
      ( diagonal, inner,
        [ f "a(i,j) = 0.5 * (a(i-1,j) + a(i,j-1)) + 0.1 * sin(%s)" (e ()) ] )
  | 12 ->
      (* three levels, flow carried along the outer and the inner one:
         only the middle level may carry the rows *)
      ( Ok (I.Compile.Row 1), [ "do j = 2, 9"; "do k = 2, 4" ],
        [ f "q(i,j,k) = sin(q(i-1,j,k) + 0.5 * q(i,j,k-1) + %s)" (e ()) ] )
  | 13 ->
      (* a three-level Gauss-Seidel sweep: flow along every level; the
         (i, j) diagonal has the least stride *)
      ( diagonal, [ "do j = 2, 9"; "do k = 2, 4" ],
        [ f "q(i,j,k) = 0.3 * (q(i-1,j,k) + q(i,j-1,k) + q(i,j,k-1)) + 0.1 * sin(%s)"
            (e ()) ] )
  | 14 ->
      (* the sweep under a reversed j step: j+1 was written one point
         earlier *)
      ( diagonal, [ "do j = 9, 2, -1" ],
        [ f "a(i,j) = 0.5 * (a(i-1,j) + a(i,j+1)) + 0.1 * sin(%s)" (e ()) ] )
  | 15 ->
      (* the (1, -1) flow lands inside one diagonal row, read after it
         is written: nothing keeps it *)
      ( unordered, inner,
        [ f "a(i,j) = 0.5 * (a(i-1,j+1) + a(i,j-1)) + 0.1 * sin(%s)" (e ()) ] )
  | 16 ->
      (* the (1, -2) flow's walk-order vector (-1) runs against it *)
      ( unordered, [ "do j = 2, 8" ],
        [ f "a(i,j) = 0.5 * (a(i-1,j+2) + a(i,j-1)) + 0.1 * sin(%s)" (e ()) ] )
  | 17 ->
      (* a transposed read has no known distance: no diagonal *)
      ( unordered, inner,
        [ f "a(i,j) = 0.4 * (a(i-1,j) + a(i,j-1) + a(j+2,i-1)) + 0.1 * sin(%s)"
            (e ()) ] )
  | 18 ->
      (* c(i) is written at every j: the (-1, any) distance to its read
         is not known, and a diagonal would read c(i-1) before its last
         write *)
      ( unordered, inner,
        [ "a(i,j) = 0.5 * (a(i-1,j) + a(i,j-1)) + 0.1 * c(i-1)";
          f "c(i) = 0.5 * a(i,j) + 0.01 * %s" (e ()) ] )
  | 19 ->
      (* j steps by 2: the (0, 2, -1) flow is one step along j and one
         back along k, so it lands inside one (j, k) diagonal row;
         counted in loop values it would seem to cross rows *)
      ( unordered, [ "do j = 4, 8, 2"; "do k = 2, 3" ],
        [ f
            "q(i,j,k) = 0.25 * (q(i-1,j,k) + q(i-1,j+2,k) + q(i,j-2,k+1) \
             + q(i,j,k-1)) + 0.1 * sin(%s)"
            (e ()) ] )
  | 20 ->
      (* the sweep with j stepping by 2: a(i,j-2) is one step back *)
      ( diagonal, [ "do j = 3, 9, 2" ],
        [ f "a(i,j) = 0.5 * (a(i-1,j) + a(i,j-2)) + 0.1 * sin(%s)" (e ()) ] )
  | 21 ->
      (* a sum or product fold: rows along the source innermost j *)
      ( along_j, inner,
        [ (match Prng.int rng 3 with
          | 0 -> f "s2 = s2 + 0.01 * sin(a(i,j) + %s)" (e ())
          | 1 -> f "s2 = s2 - 0.01 * cos(b(i,j) * %s)" (e ())
          | _ -> f "s2 = s2 * (1.0 + 0.001 * sin(a(i,j) + %s))" (e ())) ] )
  | 22 ->
      (* a max or min fold after a scratch scalar *)
      ( along_j, inner,
        [ f "t1 = sin(a(i,j) + %s)" (e ());
          (if Prng.bool rng then "s2 = max(s2, b(i,j) * t1)"
           else "s2 = amin1(s2, b(i,j) + t1)") ] )
  | 23 ->
      (* the folded expression reads the accumulator: the previous
         point's value, which no row keeps.  Loop fission splits the
         fold off (no field loop, so no coverage entry) and the array
         store's fragment runs as rows. *)
      ( along_i, inner,
        [ f "s2 = s2 + 0.01 * s2 * sin(a(i,j) + %s)" (e ()); "b(i,j) = 0.5 * a(i,j)" ] )
  | 24 ->
      (* another statement reads the accumulator: no fold *)
      ( carried, inner,
        [ "s2 = s2 + 0.01 * a(i,j)"; f "b(i,j) = sin(s2 + %s)" (e ()) ] )
  | _ ->
      (* an integer scratch scalar: rows have no integer registers *)
      ( int_assign, inner,
        [ "k = i + j"; f "b(i,j) = sin(0.1 * float(k) + %s)" (e ()) ] )

(* the program and the hazard's expected outcome and source line *)
let gen_program rng ~hazard =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "c$acfd grid(m, n)\n";
  add "c$acfd status(a, b)\n";
  add "      program prop\n";
  add "      parameter (m = 12, n = 10)\n";
  add "      real a(m,n), b(m,n), c(m), q(m,n,4)\n";
  add "      real s1, s2, t1\n";
  add "      integer i, j, k\n";
  add "      s1 = 0.3\n";
  add "      s2 = -0.2\n";
  add "      t1 = 0.1\n";
  add "      do i = 1, 12\n        do j = 1, 10\n";
  add "          a(i,j) = sin(0.7*float(i) + 0.3*float(j))\n";
  add "          b(i,j) = cos(0.4*float(i) - 0.5*float(j))\n";
  add "        enddo\n      enddo\n";
  add "      do i = 1, 12\n        c(i) = 0.1*float(i)\n      enddo\n";
  add "      do i = 1, 12\n        do j = 1, 10\n          do k = 1, 4\n";
  add "            q(i,j,k) = cos(0.3*float(i) - 0.2*float(j*k))\n";
  add "          enddo\n        enddo\n      enddo\n";
  for _ = 1 to Prng.int_in rng 3 6 do
    gen_nest rng buf
  done;
  let outcome, inner, body = gen_hazard rng hazard in
  let line = List.length (String.split_on_char '\n' (Buffer.contents buf)) in
  add "      do i = 2, 11\n";
  let indent n = String.make (6 + (2 * n)) ' ' in
  List.iteri (fun n h -> add (indent (n + 1) ^ h ^ "\n")) inner;
  let depth = List.length inner + 1 in
  List.iter (fun s -> add (indent depth ^ s ^ "\n")) body;
  for n = depth - 1 downto 0 do
    add (indent n ^ "enddo\n")
  done;
  add "      write(*,*) s1, s2, t1, a(3,3), b(5,7), c(4), q(7,6,4)\n";
  add "      end\n";
  (Buffer.contents buf, outcome, line)

let path_name = function
  | Some (I.Compile.Row l) -> Printf.sprintf "rows along level %d" l
  | Some (I.Compile.Diag (a, b)) ->
      Printf.sprintf "diagonal rows of levels %d and %d" a b
  | None -> "closure IR"

let outcome_name = function
  | Ok p -> path_name (Some p)
  | Error r -> "closure IR: " ^ I.Compile.reason_to_string r

let outcome_of (ce : I.Compile.coverage_entry) = function
  | Some p -> Ok p
  | None -> Error ce.I.Compile.cov_reason

let test_random_nests () =
  let rng = Prng.create 0x5eed5 in
  let fused_somewhere = ref false in
  let fellback_somewhere = ref false in
  let outcomes = ref [] in
  for case = 1 to 3 * hazard_kinds do
    let child = Prng.split rng in
    let src, hazard_outcome, hazard_line =
      gen_program child ~hazard:(case mod hazard_kinds)
    in
    let name = Printf.sprintf "random nest %d" case in
    (try check_sequential name src
     with e ->
       Printf.eprintf "--- failing program (%s) ---\n%s\n" name src;
       raise e);
    let t = D.load src in
    let cu = I.Compile.of_unit ~fuse:true t.D.inlined in
    List.iter2
      (fun (ce : I.Compile.coverage_entry) path ->
        if ce.I.Compile.cov_fused then fused_somewhere := true
        else fellback_somewhere := true;
        let outcome = outcome_of ce path in
        outcomes := outcome :: !outcomes;
        if ce.I.Compile.cov_line = hazard_line then
          Alcotest.(check string)
            (Printf.sprintf "%s: outcome of the hazard at line %d" name hazard_line)
            (outcome_name hazard_outcome) (outcome_name outcome))
      (I.Compile.coverage cu) (I.Compile.kernel_paths cu);
    Alcotest.(check bool)
      (Printf.sprintf "%s: hazard nest at line %d recorded" name hazard_line)
      true
      (List.exists
         (fun (ce : I.Compile.coverage_entry) ->
           ce.I.Compile.cov_line = hazard_line)
         (I.Compile.coverage cu))
  done;
  Alcotest.(check bool)
    "at least one generated nest fused" true !fused_somewhere;
  Alcotest.(check bool)
    "at least one generated nest fell back" true !fellback_somewhere;
  Alcotest.(check bool)
    "every outcome ran" true
    (List.for_all
       (fun o -> List.mem o !outcomes)
       [ along_i; along_j; diagonal; carried; int_assign; unordered ])

(* the acceptance bar for the fused tier: at least 80% of each bundled
   application's field loops compile to kernels *)
let test_app_coverage () =
  List.iter
    (fun (name, nests, src) ->
      let t = D.load src in
      let cov =
        I.Compile.coverage (I.Compile.of_unit ~fuse:true t.D.inlined)
      in
      let total = List.length cov in
      let fused =
        List.length
          (List.filter (fun c -> c.I.Compile.cov_fused) cov)
      in
      Alcotest.(check int) (name ^ ": field-loop nests") nests total;
      let reasons =
        String.concat "; "
          (List.filter_map
             (fun (c : I.Compile.coverage_entry) ->
               if c.I.Compile.cov_fused then None
               else
                 Some
                   (Printf.sprintf "line %d (%s): %s" c.I.Compile.cov_line
                      (String.concat "," c.I.Compile.cov_vars)
                      (I.Compile.reason_to_string c.I.Compile.cov_reason)))
             cov)
      in
      Alcotest.(check int)
        (Printf.sprintf "%s: fused %d/%d field loops (expect 100%%)%s" name
           fused total
           (if reasons = "" then "" else " — fallbacks: " ^ reasons))
        total fused)
    [
      ("sprayer", 23, Autocfd_apps.Sprayer.source ());
      ("aerofoil", 23, Autocfd_apps.Aerofoil.source ());
      ("cavity", 7, Autocfd_apps.Cavity.source ());
      ("heat2d", 3, read_file (heat2d_path ()));
    ]

(* The same bar on what the ranks run: every field-loop nest of each
   bundled program's SPMD unit fuses, over every feasible 2- and 4-rank
   partition, fission on and off *)
let test_spmd_coverage () =
  let module T = Autocfd_partition.Topology in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun fission ->
          let spec = R.with_fission fission R.default in
          let t = D.load ~spec src in
          let grid = t.D.gi.Autocfd_analysis.Grid_info.grid in
          List.concat_map (fun n -> T.factorizations n (Array.length grid)) [ 2; 4 ]
          |> List.iter (fun parts ->
                 match T.create ~grid ~parts with
                 | exception Invalid_argument _ -> ()
                 | _ ->
                     let plan = D.plan ~spec:(R.with_parts (Some parts) spec) t in
                     let cov =
                       I.Compile.coverage (I.Compile.compile ~fuse:true plan.D.spmd)
                     in
                     Alcotest.(check (list string))
                       (Printf.sprintf "%s %s fission %b: fallbacks" name
                          (shape parts) fission)
                       []
                       (List.filter_map
                          (fun (c : I.Compile.coverage_entry) ->
                            if c.I.Compile.cov_fused then None
                            else
                              Some
                                (Printf.sprintf "line %d: %s" c.I.Compile.cov_line
                                   (I.Compile.reason_to_string c.I.Compile.cov_reason)))
                          cov)))
        [ true; false ])
    [
      ("sprayer", Autocfd_apps.Sprayer.source ());
      ("aerofoil", Autocfd_apps.Aerofoil.source ());
      ("cavity", Autocfd_apps.Cavity.source ());
      ("heat2d", read_file (heat2d_path ()));
    ]

let unit_of_source src =
  Autocfd_fortran.Inline.program (Autocfd_fortran.Parser.parse src)

(* Rows longer than the row path's piece size run as several pieces: a
   scratch scalar, a forward anti-dependence, an outer-carried flow
   dependence, a diagonal row of a Gauss-Seidel sweep and a fold across
   piece boundaries must stay bit-identical, and the scalars must leave
   with the last point's value. *)
let test_long_rows () =
  let src =
    {|c$acfd grid(n)
c$acfd status(a, b)
      program longrow
      parameter (n = 300)
      real a(n), b(n), c(4, n), g(140, 130), t1, s1
      integer i, j, k
      do i = 1, 300
        a(i) = sin(0.01 * float(i))
        b(i) = cos(0.02 * float(i))
      enddo
      do k = 1, 4
        do i = 1, 300
          c(k, i) = 0.1 * float(k) + 0.001 * float(i)
        enddo
      enddo
      do i = 2, 299
        t1 = a(i+1) * 0.5
        a(i) = sin(t1 + b(i))
        b(i) = cos(a(i) - t1)
      enddo
      do k = 2, 4
        do i = 300, 2, -1
          c(k, i) = c(k-1, i) + 0.5 * c(k, i-1)
        enddo
      enddo
      do j = 1, 130
        do i = 1, 140
          g(i, j) = 0.01 * float(i) - 0.02 * float(j)
        enddo
      enddo
      do i = 2, 140
        do j = 2, 130
          t1 = 0.5 * (g(i-1, j) + g(i, j-1))
          g(i, j) = t1 + 0.001 * float(i - j)
        enddo
      enddo
      s1 = 0.25
      do i = 1, 300
        s1 = s1 + a(i) * b(i)
      enddo
      write(*,*) t1, s1, a(150), b(298), c(4, 2), g(140, 130), g(70, 65)
      end
|}
  in
  check_sequential "long rows" src;
  let t = D.load src in
  let cu = I.Compile.of_unit ~fuse:true t.D.inlined in
  (* the (k, i) initialization runs its rows along the unit-stride k;
     the recurrence carried along k keeps its 300-point rows along i;
     the sweep's anti-diagonals reach 129 points *)
  Alcotest.(check (list string))
    "every nest takes the row path"
    (List.map
       (fun p -> path_name (Some p))
       I.Compile.[ Row 0; Row 0; Row 0; Row 1; Row 1; Diag (0, 1); Row 0 ])
    (List.map path_name (I.Compile.kernel_paths cu));
  (* an accumulator unset at entry: the kernel takes the closure-IR
     fallback, which raises the machine's error *)
  let unset =
    unit_of_source
      {|
      program unset
      real a(300), s
      integer i
      do i = 1, 300
        a(i) = 0.5 * float(i)
      enddo
      do i = 1, 300
        s = s + a(i)
      enddo
      end
|}
  in
  let outcome run =
    match run () with
    | () -> "no error"
    | exception I.Machine.Runtime_error m -> "Runtime_error: " ^ m
  in
  let cu = I.Compile.compile ~fuse:true unset in
  Alcotest.(check (list string))
    "unset accumulator: the fold still compiles to rows"
    [ path_name (Some (I.Compile.Row 0)); path_name (Some (I.Compile.Row 0)) ]
    (List.map path_name (I.Compile.kernel_paths cu));
  Alcotest.(check string)
    "unset accumulator: the machine's error"
    "Runtime_error: variable 's' used before being set"
    (outcome (fun () -> I.Machine.run (I.Machine.create unset)));
  Alcotest.(check string)
    "unset accumulator: the fused kernel's error"
    "Runtime_error: variable 's' used before being set"
    (outcome (fun () -> I.Compile.run (I.Compile.create cu)))

(* A field-loop nest whose innermost body holds an IF falls back as one
   nest: a single coverage entry under all its levels' variables, none
   for the inner DO *)
let test_if_nest_counted_once () =
  let cu =
    I.Compile.compile ~fuse:true
      (unit_of_source
         {|
      program ifnest
      real a(8, 6), c(8, 6)
      integer i, j
      do j = 1, 6
        do i = 1, 8
          a(i, j) = 0.1 * float(i + j)
          c(i, j) = 0.0
        enddo
      enddo
      do j = 1, 6
        do i = 1, 8
          if (a(i, j) .gt. 0.5) c(i, j) = c(i, j) + 1.0
        enddo
      enddo
      end
|})
  in
  Alcotest.(check (list string))
    "one entry per nest"
    [ "line 5 do j,i: fused"; "line 11 do j,i: IF in loop body" ]
    (List.map
       (fun (c : I.Compile.coverage_entry) ->
         Printf.sprintf "line %d do %s: %s" c.I.Compile.cov_line
           (String.concat "," c.I.Compile.cov_vars)
           (if c.I.Compile.cov_fused then "fused"
            else I.Compile.reason_to_string c.I.Compile.cov_reason))
       (I.Compile.coverage cu))

(* The path of every bundled fused nest: a legality rule that turns too
   conservative moves a nest to the closure IR, or its rows off the
   unit-stride level, and fails here rather than silently losing the
   row path's speed.  No bundled nest falls back.  Every row
   nest runs along the level of its arrays' first subscript, wherever
   that level sits in the source nest, except the folds, which run along
   the source innermost level; the two SOR sweeps, which read values the
   previous point wrote along every level, run along the (i, j)
   anti-diagonals. *)
let test_kernel_paths () =
  List.iter
    (fun (name, expected_fallback, expected_rows, src) ->
      let t = D.load src in
      let cu = I.Compile.of_unit ~fuse:true t.D.inlined in
      let nests =
        List.map2
          (fun (c : I.Compile.coverage_entry) path ->
            let vars = c.I.Compile.cov_vars in
            (Printf.sprintf "line %d (%s)" c.I.Compile.cov_line
               (String.concat "," vars), vars, outcome_of c path))
          (I.Compile.coverage cu) (I.Compile.kernel_paths cu)
      in
      let fallback =
        List.filter_map
          (function n, _, (Error _ as o) -> Some (n ^ " -> " ^ outcome_name o) | _ -> None)
          nests
      in
      let rows =
        List.filter_map
          (function
            | n, vars, Ok (I.Compile.Row l) ->
                Some (n ^ " -> " ^ List.nth vars l)
            | n, vars, Ok (I.Compile.Diag (a, b)) ->
                Some
                  (Printf.sprintf "%s -> diagonal %s,%s" n (List.nth vars a)
                     (List.nth vars b))
            | _ -> None)
          nests
      in
      Alcotest.(check (list string)) (name ^ ": fallback nests") expected_fallback fallback;
      Alcotest.(check (list string)) (name ^ ": row levels") expected_rows rows)
    [
      ( "aerofoil", [],
        [ "line 56 (init_i,init_j,init_k) -> init_i";
          "line 65 (init_i,init_j,init_k,init_m) -> init_i";
          "line 72 (init_i,init_k) -> init_i";
          "line 93 (farbc_j,farbc_k) -> farbc_j";
          "line 117 (surfbc_i,surfbc_k) -> surfbc_i";
          "line 140 (spanbc_i,spanbc_j) -> spanbc_i";
          "line 166 (rhs_i,rhs_j,rhs_k) -> rhs_i";
          "line 186 (rhs_i,rhs_j,rhs_k) -> rhs_i";
          "line 206 (rhs_i,rhs_j,rhs_k) -> rhs_i";
          "line 240 (advanc_i,advanc_j,advanc_k) -> advanc_i";
          "line 261 (diverg_i,diverg_j,diverg_k) -> diverg_i";
          "line 285 (psor_i,psor_j,psor_k) -> diagonal psor_i,psor_j";
          "line 306 (correc_i,correc_j,correc_k) -> correc_i";
          "line 331 (blayer_j,blayer_i,blayer_k) -> blayer_k";
          "line 387 (wallfn_i,wallfn_k) -> wallfn_i";
          "line 358 (smooth_i,smooth_j,smooth_k) -> smooth_i";
          "line 365 (smooth_i,smooth_j,smooth_k) -> smooth_i";
          "line 409 (spanav_i,spanav_j,spanav_k) -> spanav_i";
          "line 415 (spanav_i,spanav_j,spanav_k) -> spanav_i";
          "line 93 (farbc_j,farbc_k) -> farbc_j";
          "line 439 (forces_i,forces_k) -> forces_k";
          "line 461 (cflmin_i,cflmin_j,cflmin_k) -> cflmin_k";
          "line 483 (resid_i,resid_j,resid_k) -> resid_k" ],
        Autocfd_apps.Aerofoil.source () );
      ( "sprayer", [],
        [ "line 53 (init_i,init_j) -> init_i"; "line 78 (fansrc_i) -> fansrc_i";
          "line 96 (inletbc_j) -> inletbc_j"; "line 117 (wallbc_i) -> wallbc_i";
          "line 139 (eddyvis_i,eddyvis_j) -> eddyvis_i";
          "line 158 (vorttr_i,vorttr_j) -> vorttr_i";
          "line 370 (resid_i,resid_j) -> resid_j";
          "line 180 (vortup_i,vortup_j) -> vortup_i";
          "line 239 (smoothu_i,smoothu_j) -> smoothu_i";
          "line 244 (smoothu_i,smoothu_j) -> smoothu_i";
          "line 347 (deficit_i,deficit_j) -> deficit_i";
          "line 352 (deficit_i,deficit_j) -> deficit_i";
          "line 261 (outflow_j) -> outflow_j";
          "line 197 (psisol_i,psisol_j) -> psisol_i";
          "line 202 (psisol_i,psisol_j) -> psisol_i";
          "line 219 (veloc_i,veloc_j) -> veloc_i"; "line 279 (swirl_i) -> swirl_i";
          "line 283 (swirl_i) -> swirl_i";
          "line 301 (droplet_i,droplet_j) -> droplet_i";
          "line 309 (droplet_i,droplet_j) -> droplet_i";
          "line 313 (droplet_i) -> droplet_i";
          "line 329 (settle_i,settle_j) -> settle_i";
          "line 78 (fansrc_i) -> fansrc_i" ],
        Autocfd_apps.Sprayer.source () );
      ( "cavity", [],
        [ "line 40 (init_i,init_j) -> init_i"; "line 59 (wallbc_i) -> wallbc_i";
          "line 63 (wallbc_j) -> wallbc_j"; "line 81 (vort_i,vort_j) -> vort_i";
          "line 104 (resid_i,resid_j) -> resid_j";
          "line 119 (update_i,update_j) -> update_i";
          "line 137 (psisor_i,psisor_j) -> diagonal psisor_i,psisor_j" ],
        Autocfd_apps.Cavity.source () );
      ( "heat2d", [],
        [ "line 18 (i,j) -> i"; "line 24 (i,j) -> i"; "line 29 (i,j) -> j" ],
        read_file (heat2d_path ()) );
    ]

(* The compiler keeps each array's bounds and DATA contents rather than
   storage, but the initial environment's errors still raise from
   [Compile.compile], with [Machine.create]'s message. *)
let test_compile_init_errors () =
  let outcome f =
    match f () with
    | () -> "no error"
    | exception I.Machine.Runtime_error m -> "Runtime_error: " ^ m
    | exception Invalid_argument m -> "Invalid_argument: " ^ m
  in
  List.iter
    (fun (what, expected, src) ->
      let u = unit_of_source src in
      Alcotest.(check string)
        (what ^ ": Machine.create") expected
        (outcome (fun () -> ignore (I.Machine.create u)));
      List.iter
        (fun fuse ->
          Alcotest.(check string)
            (Printf.sprintf "%s: Compile.compile ~fuse:%b" what fuse)
            expected
            (outcome (fun () -> ignore (I.Compile.compile ~fuse u))))
        [ false; true ])
    [
      ( "DATA count", "Runtime_error: DATA w: 2 values for 3 elements",
        {|
      program t
      real w(3)
      data w /1.0, 2.0/
      end
|} );
      ( "non-constant bound",
        "Runtime_error: array 'w': non-constant upper bound",
        {|
      program t
      integer k
      real w(k)
      end
|} );
      ( "empty dimension",
        "Invalid_argument: Value.make_array: empty dimension 1 (1:0)",
        {|
      program t
      real w(3, 0)
      end
|} );
    ]

(* Every state of one compiled unit starts from the DATA contents in
   storage of its own: a run that writes its arrays, or a write through
   [Compile.array], leaves later states as they start. *)
let test_compile_states_own_storage () =
  let u =
    unit_of_source
      {|
      program t
      real w(3), z(2, 2), y(2)
      integer i
      data w /1.0, 2.0, 3.0/
      data z /4*0.5/
      do i = 1, 3
        w(i) = w(i) * 10.0
      end do
      z(2, 1) = -1.0
      y(2) = 4.0
      end
|}
  in
  let initial =
    [ ("w", [ 1.0; 2.0; 3.0 ]); ("y", [ 0.0; 0.0 ]);
      ("z", [ 0.5; 0.5; 0.5; 0.5 ]) ]
  in
  let machine = I.Machine.create u in
  List.iter
    (fun fuse ->
      let cu = I.Compile.compile ~fuse u in
      let contents what st =
        List.iter
          (fun (name, expected) ->
            Alcotest.(check (list (float 0.0)))
              (Printf.sprintf "fuse:%b %s: %s" fuse what name)
              expected
              (Array.to_list (I.Compile.array st name).I.Value.data))
      in
      let first = I.Compile.create cu in
      contents "first state" first initial;
      contents "as Machine.create" first
        (List.map
           (fun (name, _) ->
             (name, Array.to_list (I.Machine.array machine name).I.Value.data))
           initial);
      I.Compile.run first;
      let after_run =
        [ ("w", [ 10.0; 20.0; 30.0 ]); ("y", [ 0.0; 4.0 ]);
          ("z", [ 0.5; -1.0; 0.5; 0.5 ]) ]
      in
      contents "first state after its run" first after_run;
      let second = I.Compile.create cu in
      contents "second state" second initial;
      (I.Compile.array second "w").I.Value.data.(0) <- 99.0;
      (I.Compile.array second "z").I.Value.data.(3) <- 99.0;
      contents "third state" (I.Compile.create cu) initial;
      contents "first state after writes to the second" first after_run)
    [ false; true ]

(* A fused nest whose trip space is empty on three of four ranks (a
   boundary layer along j, the ranks splitting j) runs its closure-IR
   fallback there, compiled on first use.  On a fresh plan, the Domains
   ranks make that first call together; the run must still be
   bit-identical to the simulator's. *)
let test_domains_first_use_fallback () =
  let src =
    {|c$acfd grid(m, n)
c$acfd status(u, w)
      program edge
      parameter (m = 12, n = 16, nt = 4)
      real u(m, n), w(m, n)
      real cf
      integer i, j, it
      do j = 1, n
        do i = 1, m
          u(i, j) = 0.01 * float(i + 3 * j)
          w(i, j) = 0.0
        end do
      end do
      cf = 0.3
      do it = 1, nt
        do j = 2, n - 1
          do i = 2, m - 1
            w(i, j) = 0.25 * (u(i-1, j) + u(i+1, j) + u(i, j-1) + u(i, j+1))
          end do
        end do
        do j = 2, 3
          do i = 2, m - 1
            w(i, j) = (1.0 - cf) * w(i, j)
          end do
        end do
        do j = 2, n - 1
          do i = 2, m - 1
            u(i, j) = w(i, j)
          end do
        end do
      end do
      write(*,*) u(5, 5), u(6, 2)
      end
|}
  in
  let plan = D.plan ~spec:(parts_spec [| 1; 4 |]) (D.load src) in
  let idle =
    List.filter
      (fun r ->
        let b = Autocfd_partition.Topology.block plan.D.topo r in
        let open Autocfd_partition.Block in
        b.hi.(1) < 2 || b.lo.(1) > 3)
      (List.init 4 Fun.id)
  in
  Alcotest.(check int) "ranks with an empty boundary-layer trip space" 3
    (List.length idle);
  let cu = I.Compile.of_unit ~fuse:true plan.D.spmd in
  Alcotest.(check bool)
    "the boundary-layer nest is fused" true
    (List.exists
       (fun (c : I.Compile.coverage_entry) ->
         c.I.Compile.cov_line = 21 && c.I.Compile.cov_fused)
       (I.Compile.coverage cu));
  let r = D.run ~spec:(R.with_engine I.Spmd.Domains R.default) plan in
  let sim = D.run ~spec:(R.with_engine I.Spmd.Fused R.default) plan in
  let ctx = "boundary layer/domains 1x4" in
  check_array_list "gathered" ctx sim.I.Spmd.gathered r.I.Spmd.gathered;
  Alcotest.(check bool) (ctx ^ ": scalars") true
    (sim.I.Spmd.scalars = r.I.Spmd.scalars);
  Alcotest.(check bool) (ctx ^ ": flops per rank") true
    (sim.I.Spmd.flops_per_rank = r.I.Spmd.flops_per_rank);
  Alcotest.(check (list string)) (ctx ^ ": output") sim.I.Spmd.output
    r.I.Spmd.output

let suite =
  [
    ("sprayer engines identical", `Slow, test_sprayer);
    ("aerofoil engines identical", `Slow, test_aerofoil);
    ("cavity engines identical", `Slow, test_cavity);
    ("heat2d engines identical", `Slow, test_heat2d);
    ("charged timing identical", `Quick, test_charged_timing_identical);
    ("domains sprayer identical", `Slow, test_domains_sprayer);
    ("domains aerofoil identical", `Slow, test_domains_aerofoil);
    ("domains heat2d identical", `Quick, test_domains_heat2d);
    ("random nests three-way identical", `Slow, test_random_nests);
    ("fused kernel coverage 100%", `Quick, test_app_coverage);
    ("spmd kernel coverage 100%", `Quick, test_spmd_coverage);
    ("fused kernel paths pinned", `Quick, test_kernel_paths);
    ("row path long rows", `Quick, test_long_rows);
    ("IF-bodied nest counted once", `Quick, test_if_nest_counted_once);
    ("compile-time init errors", `Quick, test_compile_init_errors);
    ( "compiled states own their storage", `Quick,
      test_compile_states_own_storage );
    ("domains first-use fallback", `Quick, test_domains_first_use_fallback);
  ]
