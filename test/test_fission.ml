(** Golden tests of the loop-fission pass ({!Autocfd_analysis.Fission}).

    Synthetic mixed nests — fusable field updates interleaved with
    statements the kernel tier cannot take — must split into the expected
    fragments (checked via the [do_fission] provenance tags on the
    distributed AST), nests the dependence analysis must keep whole must
    not split, and every fissioned program must stay bit-identical across
    every execution engine, fused kernels on and off, and against the
    same program with the pass disabled. *)

open Autocfd_fortran
module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module E = Autocfd.Experiments
module R = Autocfd.Runspec
module I = Autocfd_interp
module F = Autocfd_analysis.Fission

let header =
  {|c$acfd grid(n, n)
c$acfd status(a, b, c)
      program mix
      parameter (n = 16)
      dimension a(n,n), b(n,n), c(n,n)
      do 10 j = 1, n
      do 10 i = 1, n
      a(i,j) = 1.0
      b(i,j) = 2.0
      c(i,j) = 0.0
   10 continue
|}

let footer = {|      write (*,*) a(3,3), b(3,3), c(3,3)
      end
|}

let program body = header ^ body ^ footer

(* two independent fusable updates plus an IF residue in one nest *)
let mixed_src =
  program
    {|      do 20 j = 2, n - 1
      do 20 i = 2, n - 1
      a(i,j) = b(i,j) * 2.0 + float(i)
      c(i,j) = c(i,j) + 1.0
      if (b(i,j) .gt. 1.0) b(i,j) = b(i,j) - 0.5
   20 continue
|}

(* mutual loop-carried dependence: s1 and s2 feed each other across
   iterations, forming one SCC the pass must not cut — the independent
   IF residue on [c] may still peel off *)
let cycle_src =
  program
    {|      do 20 j = 2, n - 1
      do 20 i = 2, n - 1
      a(i,j) = b(i,j-1) + 1.0
      b(i,j) = a(i,j-1) * 0.5
      if (c(i,j) .lt. 0.0) c(i,j) = 0.0
   20 continue
|}

(* a scalar temporary crossing two statements chains them into one
   dependence group: the pass must never separate the definition of [t]
   from its use *)
let scalar_src =
  program
    {|      do 20 j = 2, n - 1
      do 20 i = 2, n - 1
      t = b(i,j) * 2.0
      a(i,j) = t + 1.0
      if (c(i,j) .lt. 0.0) c(i,j) = 0.0
   20 continue
|}

(* anti-dependence: s1 reads a(i+1,j) before s2 overwrites it, so the
   fragment order must keep the reader's nest before the writer's *)
let backward_src =
  program
    {|      do 20 j = 2, n - 1
      do 20 i = 2, n - 1
      c(i,j) = a(i+1,j) * 0.5
      a(i,j) = b(i,j) + 1.0
      if (b(i,j) .gt. 1.0) b(i,j) = b(i,j) - 0.25
   20 continue
|}

(* an integer scratch scalar keeps its fragment {k, b} off the fused
   tier, so splitting the IF residue off would buy nothing *)
let int_scalar_src =
  program
    {|      do 20 j = 2, n - 1
      do 20 i = 2, n - 1
      k = i + 2*j
      b(i,j) = 0.5*float(k) + a(i,j)
      if (a(i,j) .gt. 1.0) c(i,j) = c(i,j) + 1.0
   20 continue
|}

(* [t] is read before the body assigns it: that read sees the previous
   point's value, so the {b, t} fragment would stay on the closure IR
   and splitting the IF residue off would buy nothing *)
let early_read_src =
  program
    {|      t = 0.0
      do 20 j = 2, n - 1
      do 20 i = 2, n - 1
      b(i,j) = 0.5*t + a(i,j)
      t = a(i,j)*0.25
      if (a(i,j) .gt. 1.1) c(i,j) = c(i,j) + 1.0
   20 continue
|}

(* a fold reads its own accumulator before assigning it, and still
   fuses: it is no residue, so there is nothing to split off *)
let fold_src =
  program
    {|      s = 0.0
      do 20 j = 2, n - 1
      do 20 i = 2, n - 1
      b(i,j) = a(i,j) * 2.0
      s = s + a(i,j)
   20 continue
      write (*,*) s
|}

(* every fission fragment of [line], in body order, via the provenance
   tags the pass leaves on the outermost DO of each fragment *)
let frags_of_line unit line =
  List.rev
    (Ast.fold_stmts
       (fun acc (s : Ast.stmt) ->
         match s.Ast.s_kind with
         | Ast.Do d when s.Ast.s_line = line -> (
             match d.Ast.do_fission with Some f -> f :: acc | None -> acc)
         | _ -> acc)
       [] unit.Ast.u_body)

let check_identical_runs name src =
  (* fission on vs off: same outputs, arrays, flops *)
  let t = D.load src
  and t0 =
    D.load ~spec:Autocfd.Runspec.(default |> with_fission false) src
  in
  List.iter
    (fun (ename, seq) ->
      let r = seq t and r0 = seq t0 in
      Alcotest.(check (list string))
        (Printf.sprintf "%s/%s: output (fission on = off)" name ename)
        r0.D.sq_output r.D.sq_output;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%s/%s: flops (fission on = off)" name ename)
        r0.D.sq_flops r.D.sq_flops)
    [
      ("tree", Oracle.seq_tree);
      ("compiled", Oracle.seq_unfused);
      ("fused", D.run_seq ?spec:None);
    ]

(* the fissioned program across every engine: the closure IR without and
   with fused kernels on the simulated cluster against the tree walker
   (full bit-identity including stats) and the real Domains engine
   (program state; stats are wall clock) *)
let check_four_engines name src parts =
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec parts) t in
  let tree = Oracle.run_tree plan in
  List.iter
    (fun (ename, run) ->
      let r = run plan in
      let ctx = Printf.sprintf "%s/%s" name ename in
      Alcotest.(check (list string))
        (ctx ^ ": output") tree.I.Spmd.output r.I.Spmd.output;
      Alcotest.(check bool)
        (ctx ^ ": gathered arrays") true
        (List.for_all2
           (fun (na, (aa : I.Value.arr)) (nb, ab) ->
             na = nb && aa.I.Value.data = ab.I.Value.data)
           tree.I.Spmd.gathered r.I.Spmd.gathered);
      Alcotest.(check bool)
        (ctx ^ ": scalars") true
        (tree.I.Spmd.scalars = r.I.Spmd.scalars);
      Alcotest.(check bool)
        (ctx ^ ": flops per rank") true
        (tree.I.Spmd.flops_per_rank = r.I.Spmd.flops_per_rank);
      if ename <> "domains" then
        Alcotest.(check bool)
          (ctx ^ ": simulator stats") true
          (tree.I.Spmd.stats = r.I.Spmd.stats))
    [
      ("compiled", Oracle.run_unfused ?engine:None ?spec:None);
      ("fused", D.run ?spec:None);
      ("domains", D.run ~spec:(R.with_engine I.Spmd.Domains R.default));
    ]

let test_mixed_split () =
  let t = D.load mixed_src in
  Alcotest.(check int) "one nest split" 1 (List.length t.D.splits);
  let s = List.hd t.D.splits in
  Alcotest.(check int) "split at the mixed nest" 12 s.F.sp_line;
  Alcotest.(check (list string)) "loop vars" [ "j"; "i" ] s.F.sp_vars;
  Alcotest.(check int) "three fragments" 3 s.F.sp_nfrags;
  let tags = frags_of_line t.D.inlined 12 in
  Alcotest.(check (list (pair int int)))
    "provenance tags in body order"
    [ (1, 3); (2, 3); (3, 3) ]
    (List.map (fun (f : Ast.fission_tag) -> (f.Ast.fi_frag, f.Ast.fi_nfrags)) tags);
  (* the two all-fusable fragments reach the fused tier; the IF residue
     falls back *)
  let cov = I.Compile.coverage (I.Compile.of_unit ~fuse:true t.D.inlined) in
  let at12 =
    List.filter (fun c -> c.I.Compile.cov_line = 12 && c.I.Compile.cov_frag <> None) cov
  in
  Alcotest.(check int) "fragments covered" 3 (List.length at12);
  Alcotest.(check int) "fragments fused" 2
    (List.length (List.filter (fun c -> c.I.Compile.cov_fused) at12))

let test_cycle_stays_together () =
  let t = D.load cycle_src in
  Alcotest.(check int) "one nest split" 1 (List.length t.D.splits);
  (* only two fragments: the {s1, s2} SCC as one nest, the IF residue as
     the other — never three *)
  Alcotest.(check int) "SCC statements stay in one fragment" 2
    (List.hd t.D.splits).F.sp_nfrags;
  let cov = I.Compile.coverage (I.Compile.of_unit ~fuse:true t.D.inlined) in
  let scc =
    List.find
      (fun c ->
        match c.I.Compile.cov_frag with
        | Some f -> f.Ast.fi_frag = 1
        | None -> false)
      cov
  in
  Alcotest.(check bool) "the SCC fragment still fuses" true
    scc.I.Compile.cov_fused

let test_scalar_stays_together () =
  let t = D.load scalar_src in
  Alcotest.(check int) "one nest split" 1 (List.length t.D.splits);
  Alcotest.(check int) "def and use of t stay in one fragment" 2
    (List.hd t.D.splits).F.sp_nfrags

let test_int_scalar_unsplit () =
  let t = D.load int_scalar_src in
  Alcotest.(check int) "no nest split" 0 (List.length t.D.splits)

let test_scalar_reads_unsplit () =
  List.iter
    (fun (name, src) ->
      Alcotest.(check int) (name ^ ": no nest split") 0
        (List.length (D.load src).D.splits))
    [ ("early read", early_read_src); ("fold", fold_src) ]

let test_backward_split () =
  let t = D.load backward_src in
  Alcotest.(check int) "anti-dependence still splits" 1
    (List.length t.D.splits);
  Alcotest.(check int) "three fragments" 3
    (List.hd t.D.splits).F.sp_nfrags

let test_identical () =
  List.iter
    (fun (name, src) -> check_identical_runs name src)
    [
      ("mixed", mixed_src);
      ("cycle", cycle_src);
      ("scalar", scalar_src);
      ("backward", backward_src);
    ]

let test_four_engines () =
  check_four_engines "mixed" mixed_src [| 2; 1 |];
  check_four_engines "backward" backward_src [| 1; 2 |]

let suite =
  [
    ("mixed nest splits with provenance", `Quick, test_mixed_split);
    ("loop-carried cycle stays together", `Quick, test_cycle_stays_together);
    ("scalar temporary stays together", `Quick, test_scalar_stays_together);
    ("anti-dependence ordering", `Quick, test_backward_split);
    ("integer scratch nest stays whole", `Quick, test_int_scalar_unsplit);
    ("scalar-read nests stay whole", `Quick, test_scalar_reads_unsplit);
    ("fission on/off bit-identical", `Quick, test_identical);
    ("four engines bit-identical", `Quick, test_four_engines);
  ]
