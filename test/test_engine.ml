(** Golden equivalence of the execution engines.

    The closure-IR engine ({!Autocfd_interp.Compile}; [Fused] with
    [fuse = false]) and the fused-kernel tier on top of it must be
    bit-identical to the tree-walking interpreter
    ({!Autocfd_interp.Machine}) — not merely
    numerically close: gathered arrays, final scalars, WRITE output, flop
    counts and the full simulator statistics (message/byte/collective
    censuses, per-rank times) are compared with structural equality on
    every bundled application program and the heat2d example, over several
    partition shapes each.  A PRNG-driven property suite additionally
    generates random affine loop nests (including deliberate fall-back
    shapes: non-affine subscripts, IF bodies, zero-trip loops; and the
    dependences that decide between the row and the point path of a
    fused kernel) and asserts the same three-way equivalence. *)

module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module R = Autocfd.Runspec
module I = Autocfd_interp
module Prng = Autocfd_util.Prng

(* the closure IR without and with fused kernels, each against Tree *)
let engines =
  [ ("compiled", R.(default |> with_fuse false)); ("fused", R.default) ]

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
  let tree = D.run_seq ~spec:(R.with_engine I.Spmd.Tree R.default) t in
  List.iter
    (fun (ename, spec) ->
      let name = name ^ "/" ^ ename in
      let r = D.run_seq ~spec t in
      Alcotest.(check (list string))
        (name ^ ": output") tree.D.sq_output r.D.sq_output;
      Alcotest.(check (float 0.0))
        (name ^ ": flops") tree.D.sq_flops r.D.sq_flops;
      check_array_list "sequential" name tree.D.sq_arrays r.D.sq_arrays)
    engines

let check_parallel name src parts =
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec parts) t in
  let tree = D.run ~spec:(R.with_engine I.Spmd.Tree R.default) plan in
  List.iter
    (fun (ename, spec) ->
      let r = D.run ~spec plan in
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
    D.run ~spec:R.(default |> with_engine I.Spmd.Domains |> with_fuse fuse) plan
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
  let run spec =
    D.run
      ~spec:
        R.(
          spec
          |> with_net machine.Autocfd_perfmodel.Model.net
          |> with_flop_time flop_time)
      plan
  in
  let tree = run (R.with_engine I.Spmd.Tree R.default) in
  List.iter
    (fun (ename, spec) ->
      let r = run spec in
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
      (* scalar reduction: fuses on the point path *)
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

(* Row-path hazards: nests whose innermost loop carries (or seems to
   carry) a dependence, each with the path the legality rule must pick.
   Running statement by statement over a row keeps forward and anti
   dependences and breaks the rest.  Their expressions read only [c(i)]
   and scalars, which no hazard writes in the same row, so the path
   depends on the listed statements alone. *)
let hazard_kinds = 9

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
  let inner = "do j = 2, 9" in
  match kind with
  | 0 ->
      (* self-carried flow: each point reads the previous point's write *)
      (I.Compile.Point, inner, [ f "a(i,j) = cos(0.5 * a(i,j-1) + %s)" (e ()) ])
  | 1 ->
      (* backward cross-statement flow: the first statement reads what
         the second wrote one point earlier *)
      ( I.Compile.Point, inner,
        [ f "b(i,j) = sin(a(i,j-1) + %s)" (e ()); f "a(i,j) = cos(%s)" (e ()) ] )
  | 2 ->
      (* self anti-dependence: the read precedes the write it meets *)
      (I.Compile.Row, inner, [ f "a(i,j) = sin(a(i,j+1) + %s)" (e ()) ])
  | 3 ->
      (* forward anti and flow dependences across two statements *)
      ( I.Compile.Row, inner,
        [ f "b(i,j) = cos(a(i,j+1) * %s)" (e ()); f "a(i,j) = sin(b(i,j) + %s)" (e ()) ] )
  | 4 ->
      (* scratch scalar read before its assignment: the previous point's *)
      ( I.Compile.Point, inner,
        [ f "b(i,j) = sin(t1 + %s)" (e ()); f "t1 = cos(a(i,j) * %s)" (e ()) ] )
  | 5 ->
      (* scratch scalar assigned, then read *)
      ( I.Compile.Row, inner,
        [ f "t1 = cos(a(i,j) * %s)" (e ()); f "b(i,j) = sin(t1 + %s)" (e ()) ] )
  | 6 ->
      (* reduction into an array element: the innermost variable is
         absent from the written subscripts *)
      (I.Compile.Point, inner, [ f "c(i) = c(i) + 0.01 * sin(a(i,j) + %s)" (e ()) ])
  | 7 ->
      (* reversed innermost step: j+1 was written one point earlier, j-1
         is written one point later *)
      if Prng.bool rng then
        (I.Compile.Point, "do j = 9, 2, -1", [ f "a(i,j) = sin(a(i,j+1) + %s)" (e ()) ])
      else (I.Compile.Row, "do j = 9, 2, -1", [ f "a(i,j) = sin(a(i,j-1) + %s)" (e ()) ])
  | _ ->
      (* strided innermost step, distance one stride *)
      if Prng.bool rng then
        (I.Compile.Point, "do j = 4, 7, 3", [ f "a(i,j) = sin(a(i,j-3) + %s)" (e ()) ])
      else (I.Compile.Row, "do j = 4, 7, 3", [ f "a(i,j) = sin(a(i,j+3) + %s)" (e ()) ])

(* the program and the hazard's expected path and source line *)
let gen_program rng ~hazard =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "c$acfd grid(m, n)\n";
  add "c$acfd status(a, b)\n";
  add "      program prop\n";
  add "      parameter (m = 12, n = 10)\n";
  add "      real a(m,n), b(m,n), c(m)\n";
  add "      real s1, s2, t1\n";
  add "      integer i, j\n";
  add "      s1 = 0.3\n";
  add "      s2 = -0.2\n";
  add "      t1 = 0.1\n";
  add "      do i = 1, 12\n        do j = 1, 10\n";
  add "          a(i,j) = sin(0.7*float(i) + 0.3*float(j))\n";
  add "          b(i,j) = cos(0.4*float(i) - 0.5*float(j))\n";
  add "        enddo\n      enddo\n";
  add "      do i = 1, 12\n        c(i) = 0.1*float(i)\n      enddo\n";
  for _ = 1 to Prng.int_in rng 3 6 do
    gen_nest rng buf
  done;
  let path, inner, body = gen_hazard rng hazard in
  let line = List.length (String.split_on_char '\n' (Buffer.contents buf)) in
  add "      do i = 2, 11\n";
  add ("        " ^ inner ^ "\n");
  List.iter (fun s -> add ("          " ^ s ^ "\n")) body;
  add "        enddo\n      enddo\n";
  add "      write(*,*) s1, s2, t1, a(3,3), b(5,7), c(4)\n";
  add "      end\n";
  (Buffer.contents buf, path, line)

let test_random_nests () =
  let rng = Prng.create 0x5eed5 in
  let fused_somewhere = ref false in
  let fellback_somewhere = ref false in
  let paths = ref [] in
  for case = 1 to 27 do
    let child = Prng.split rng in
    let src, hazard_path, hazard_line =
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
        Option.iter (fun p -> paths := p :: !paths) path;
        if ce.I.Compile.cov_line = hazard_line then
          Alcotest.(check bool)
            (Printf.sprintf "%s: hazard at line %d takes the %s path" name
               hazard_line
               (if hazard_path = I.Compile.Row then "row" else "point"))
            true
            (path = Some hazard_path))
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
    "both kernel paths ran" true
    (List.mem I.Compile.Row !paths && List.mem I.Compile.Point !paths)

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

(* Rows longer than the row path's piece size run as several pieces: a
   scratch scalar, a forward anti-dependence and an outer-carried flow
   dependence across piece boundaries must stay bit-identical, and the
   scalar must leave with the last point's value. *)
let test_long_rows () =
  let src =
    {|c$acfd grid(n)
c$acfd status(a, b)
      program longrow
      parameter (n = 300)
      real a(n), b(n), c(4, n), t1
      integer i, k
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
      write(*,*) t1, a(150), b(298), c(4, 2)
      end
|}
  in
  check_sequential "long rows" src;
  let t = D.load src in
  let cu = I.Compile.of_unit ~fuse:true t.D.inlined in
  Alcotest.(check bool)
    "every nest takes the row path" true
    (List.for_all (( = ) (Some I.Compile.Row)) (I.Compile.kernel_paths cu))

(* The path of every bundled fused nest: a legality rule that turns too
   conservative moves a nest to the point path and fails here, rather
   than silently losing the row path's speed.  The point-path nests are
   the scalar reductions and the two SOR sweeps, whose innermost loop
   reads a value the previous point wrote. *)
let test_kernel_paths () =
  List.iter
    (fun (name, expected, src) ->
      let t = D.load src in
      let cu = I.Compile.of_unit ~fuse:true t.D.inlined in
      let point =
        List.concat
          (List.map2
             (fun (c : I.Compile.coverage_entry) path ->
               match path with
               | Some I.Compile.Point ->
                   [ Printf.sprintf "line %d (%s)" c.I.Compile.cov_line
                       (String.concat "," c.I.Compile.cov_vars) ]
               | Some I.Compile.Row | None -> [])
             (I.Compile.coverage cu) (I.Compile.kernel_paths cu))
      in
      Alcotest.(check (list string)) (name ^ ": point-path nests") expected point)
    [
      ( "aerofoil",
        [ "line 285 (psor_i,psor_j,psor_k)"; "line 439 (forces_i,forces_k)";
          "line 461 (cflmin_i,cflmin_j,cflmin_k)";
          "line 483 (resid_i,resid_j,resid_k)" ],
        Autocfd_apps.Aerofoil.source () );
      ("sprayer", [ "line 370 (resid_i,resid_j)" ], Autocfd_apps.Sprayer.source ());
      ( "cavity",
        [ "line 104 (resid_i,resid_j)"; "line 137 (psisor_i,psisor_j)" ],
        Autocfd_apps.Cavity.source () );
      ("heat2d", [ "line 29 (i,j)" ], read_file (heat2d_path ()));
    ]

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
    ("fused kernel paths pinned", `Quick, test_kernel_paths);
    ("row path long rows", `Quick, test_long_rows);
  ]
