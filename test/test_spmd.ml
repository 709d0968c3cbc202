(** End-to-end correctness of the generated SPMD programs: the parallel
    execution on the simulated cluster must be bit-identical to the
    sequential interpretation, for every structural feature of the paper
    (Jacobi halo exchange, mirror-image pipelines, wavefronts, distance-2
    stencils, packed arrays, boundary code, reductions, descending
    sweeps) and — as a property test — for randomized stencil programs
    under random partitions. *)

module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module I = Autocfd_interp

let max_div src parts =
  let t = D.load src in
  let seq = D.run_seq t in
  let plan = D.plan ~spec:(parts_spec parts) t in
  let par = D.run plan in
  List.fold_left (fun a (_, d) -> Float.max a d) 0.0
    (D.max_divergence seq par)

let check_equiv name src partitions =
  List.iter
    (fun parts ->
      let d = max_div src parts in
      if d <> 0.0 then
        Alcotest.failf "%s diverges by %g under %s" name d
          (String.concat "x" (Array.to_list (Array.map string_of_int parts))))
    partitions

let test_jacobi () =
  check_equiv "jacobi"
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 17, n = 11)
      real u(m, n), w(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) * 0.3 + float(j)
        end do
      end do
      do it = 1, 6
        do i = 2, m - 1
          do j = 2, n - 1
            w(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = w(i, j)
          end do
        end do
      end do
      write(*,*) u(m/2, n/2)
      end
|}
    [ [| 2; 1 |]; [| 1; 3 |]; [| 3; 2 |]; [| 4; 2 |] ]

let test_gauss_seidel_mirror () =
  check_equiv "gauss-seidel"
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 15, n = 13)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i + 2 * j)
        end do
      end do
      do it = 1, 5
        do i = 2, m - 1
          do j = 2, n - 1
            v(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
          end do
        end do
      end do
      write(*,*) v(3, 3)
      end
|}
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 3; 3 |]; [| 4; 1 |] ]

let test_wavefront_recurrence () =
  (* Fig. 3(a): one-directional recurrence *)
  check_equiv "wavefront"
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 14, n = 12)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i * j)
        end do
      end do
      do it = 1, 4
        do i = 2, m
          do j = 2, n
            v(i, j) = 0.5 * (v(i-1, j) + v(i, j-1))
          end do
        end do
      end do
      write(*,*) v(m, n)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |]; [| 3; 2 |] ]

let test_distance_two () =
  check_equiv "distance-2 stencil"
    {|
c$acfd grid(m)
c$acfd status(u, w)
      program t
      parameter (m = 24)
      real u(m), w(m)
      integer i, it
      do i = 1, m
        u(i) = float(i)
      end do
      do it = 1, 3
        do i = 3, m - 2
          w(i) = u(i-2) - 4.0 * u(i-1) + 6.0 * u(i) - 4.0 * u(i+1)
     &         + u(i+2)
        end do
        do i = 3, m - 2
          u(i) = u(i) + 0.05 * w(i)
        end do
      end do
      write(*,*) u(m/2)
      end
|}
    [ [| 2 |]; [| 3 |]; [| 4 |] ]

let test_packed_array () =
  check_equiv "packed status array"
    {|
c$acfd grid(m, n)
c$acfd status(q, u)
      program t
      parameter (m = 12, n = 10)
      real q(m, n, 3), u(m, n)
      integer i, j, c, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i + j)
          do c = 1, 3
            q(i, j, c) = 0.0
          end do
        end do
      end do
      do it = 1, 3
        do c = 1, 3
          do i = 2, m - 1
            do j = 2, n - 1
              q(i, j, c) = u(i-1, j) + u(i+1, j) + float(c)
            end do
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = 0.1 * (q(i, j, 1) + q(i, j, 2) + q(i, j, 3))
          end do
        end do
      end do
      write(*,*) u(m/2, n/2)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |]; [| 1; 3 |] ]

let test_boundary_fixed_planes () =
  check_equiv "boundary code"
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 16, n = 12)
      real u(m, n), w(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = 0.0
        end do
      end do
      do it = 1, 5
        do j = 1, n
          u(1, j) = float(j)
          u(m, j) = u(m-1, j)
        end do
        do i = 1, m
          u(i, 1) = u(i, 2)
          u(i, n) = 0.5
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            w(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = w(i, j)
          end do
        end do
      end do
      write(*,*) u(m/2, n/2), u(2, 2)
      end
|}
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 4; 3 |] ]

let test_reductions () =
  check_equiv "max and sum reductions"
    {|
c$acfd grid(m, n)
c$acfd status(u)
      program t
      parameter (m = 14, n = 10)
      real u(m, n)
      real emax, total
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) - 0.5 * float(j)
        end do
      end do
      do it = 1, 3
        emax = 0.0
        total = 0.0
        do i = 2, m - 1
          do j = 2, n - 1
            u(i, j) = 0.5 * (u(i-1, j) + u(i+1, j))
            emax = max(emax, abs(u(i, j)))
            total = total + u(i, j)
          end do
        end do
      end do
      write(*,*) emax, total
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |]; [| 3; 1 |] ]

let test_descending_sweep () =
  check_equiv "descending pipeline"
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 13, n = 9)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i * i - j)
        end do
      end do
      do it = 1, 4
        do i = m - 1, 2, -1
          do j = 2, n - 1
            v(i, j) = 0.5 * (v(i+1, j) + v(i, j-1))
          end do
        end do
      end do
      write(*,*) v(2, 2)
      end
|}
    [ [| 2; 1 |]; [| 3; 1 |]; [| 2; 2 |] ]

let test_three_dims () =
  check_equiv "3-D stencil"
    {|
c$acfd grid(m, n, l)
c$acfd status(u, w)
      program t
      parameter (m = 10, n = 8, l = 6)
      real u(m, n, l), w(m, n, l)
      integer i, j, k, it
      do i = 1, m
        do j = 1, n
          do k = 1, l
            u(i, j, k) = float(i + j + k)
          end do
        end do
      end do
      do it = 1, 3
        do i = 2, m - 1
          do j = 2, n - 1
            do k = 2, l - 1
              w(i,j,k) = (u(i-1,j,k) + u(i+1,j,k) + u(i,j-1,k)
     &                 + u(i,j+1,k) + u(i,j,k-1) + u(i,j,k+1)) / 6.0
            end do
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            do k = 2, l - 1
              u(i, j, k) = w(i, j, k)
            end do
          end do
        end do
      end do
      write(*,*) u(m/2, n/2, l/2)
      end
|}
    [ [| 2; 1; 1 |]; [| 2; 2; 1 |]; [| 2; 2; 2 |]; [| 1; 1; 3 |] ]

let test_read_broadcast () =
  let src =
    {|
c$acfd grid(m)
c$acfd status(u)
      program t
      parameter (m = 12)
      real u(m)
      real scale
      integer i
      read(*,*) scale
      do i = 1, m
        u(i) = scale * float(i)
      end do
      do i = 2, m - 1
        u(i) = u(i) + 0.5 * (u(i-1) + u(i+1))
      end do
      write(*,*) u(m/2)
      end
|}
  in
  let t = D.load src in
  let seq = D.run_seq ~spec:(Autocfd.Runspec.with_input [ 2.5 ] Autocfd.Runspec.default) t in
  let plan = D.plan ~spec:(parts_spec [| 3 |]) t in
  let par = D.run ~spec:(Autocfd.Runspec.with_input [ 2.5 ] Autocfd.Runspec.default) plan in
  Alcotest.(check (list string)) "same output" seq.D.sq_output
    par.I.Spmd.output;
  let d =
    List.fold_left (fun a (_, x) -> Float.max a x) 0.0
      (D.max_divergence seq par)
  in
  Alcotest.(check (float 0.0)) "equivalent" 0.0 d

let test_serial_fallback_allgather () =
  (* the diagonal-dependence loop must run serially under an i-cut and
     still produce identical results thanks to the allgather *)
  check_equiv "serial fallback"
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 12, n = 10)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i + j * j)
        end do
      end do
      do it = 1, 3
        do j = 2, n - 1
          do i = 2, m - 1
            v(i,j) = 0.5 * (v(i, j-1) + v(i+1, j-1))
          end do
        end do
      end do
      write(*,*) v(2, 2)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |]; [| 4; 1 |] ]

(* ------------------------------------------------------------------ *)
(* Nests that cannot be cut: each program diverged before the rule      *)
(* that now keeps its nest serial                                      *)
(* ------------------------------------------------------------------ *)

(* v(3, j) is written at every i: the last i wins, so an i cut would
   keep the owner's last i *)
let test_fixed_plane_write_in_sweep () =
  check_equiv "fixed-plane write in its sweep"
    {|
c$acfd grid(m, n)
c$acfd status(u, v)
      program t
      parameter (m = 12, n = 8)
      real u(m, n), v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) + 0.1 * float(j)
          v(i, j) = 0.0
        end do
      end do
      do it = 1, 2
        do i = 1, m
          do j = 1, n
            v(3, j) = u(i, j)
          end do
        end do
        do i = 2, m - 1
          do j = 1, n
            u(i, j) = 0.5 * (u(i-1, j) + v(i, j))
          end do
        end do
      end do
      write(*,*) v(3, 2)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |] ]

(* u(4, j) is a plane of the cut dimension, read through a scalar
   temporary into a write that moves with i *)
let test_fixed_plane_read_through_temporary () =
  check_equiv "fixed-plane read through a temporary"
    {|
c$acfd grid(m, n)
c$acfd status(u, v)
      program t
      parameter (m = 12, n = 8)
      real u(m, n), v(m, n)
      real t
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) + 0.1 * float(j)
          v(i, j) = 0.0
        end do
      end do
      do it = 1, 2
        do i = 1, m
          do j = 1, n
            u(i, j) = 0.5 * u(i, j) + v(i, j)
          end do
        end do
        do i = 1, m
          do j = 1, n
            t = u(4, j)
            v(i, j) = t + u(i, j)
          end do
        end do
      end do
      write(*,*) v(2, 2)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |] ]

(* j subscripts both dimensions in w(j, j): the nest has no consistent
   sweep, and its inner loop becomes an irregular head that runs
   replicated after an allgather *)
let test_loop_var_in_two_dims () =
  check_equiv "loop variable in two dimensions"
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 12, n = 8)
      real u(m, n), w(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) + 0.1 * float(j)
          w(i, j) = float(i * j)
        end do
      end do
      do it = 1, 2
        do i = 1, m
          do j = 1, n
            w(i, j) = 0.5 * w(i, j) + u(i, j)
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            w(i, j) = 0.5 * w(j, j) + u(i, j)
          end do
        end do
      end do
      write(*,*) w(2, 2)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |] ]

(* s is assigned at every point; a later nest reads it before assigning
   it, and code after the nests reads it: each rank would keep its own
   last point's value *)
let test_live_out_scalar () =
  check_equiv "scalar read by a later nest"
    {|
c$acfd grid(m, n)
c$acfd status(u, v, w)
      program t
      parameter (m = 12, n = 8)
      real u(m, n), v(m, n), w(m, n)
      real s
      integer i, j, it
      s = 0.0
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) + 0.1 * float(j)
        end do
      end do
      do it = 1, 2
        do i = 1, m
          do j = 1, n
            s = u(i, j) * 2.0
            v(i, j) = s
          end do
        end do
        do i = 1, m
          do j = 1, n
            w(i, j) = u(i, j) + s
          end do
        end do
      end do
      write(*,*) w(2, 2)
      end
|}
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |] ];
  check_equiv "scalar read after the nest"
    {|
c$acfd grid(m, n)
c$acfd status(u, v)
      program t
      parameter (m = 12, n = 8)
      real u(m, n), v(m, n)
      real s
      integer i, j
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) + 0.1 * float(j)
        end do
      end do
      do i = 1, m
        do j = 1, n
          s = u(i, j) * 2.0
          v(i, j) = s
        end do
      end do
      u(1, 1) = s
      write(*,*) u(1, 1), s
      end
|}
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |] ]

(* ------------------------------------------------------------------ *)
(* Property: random stencil programs match under random partitions     *)
(* ------------------------------------------------------------------ *)

type rand_cfg = {
  rc_seed : int;
  rc_parts : int array;
  rc_self : bool;  (** in-place (self-dependent) update loop? *)
  rc_offs : (int * int) list;  (** stencil offsets *)
  rc_bc : bool;  (** boundary fixup loop? *)
}

let gen_cfg =
  QCheck.Gen.(
    let* seed = int_range 1 10000 in
    let* px = int_range 1 3 in
    let* py = int_range 1 3 in
    let* self = bool in
    let* n_offs = int_range 1 4 in
    let* offs =
      list_repeat n_offs
        (pair (int_range (-1) 1) (int_range (-1) 1))
    in
    let* bc = bool in
    return
      { rc_seed = seed; rc_parts = [| px; py |]; rc_self = self;
        rc_offs = offs; rc_bc = bc })

let program_of_cfg cfg =
  let terms =
    List.mapi
      (fun idx (oi, oj) ->
        let i = if oi = 0 then "i" else Printf.sprintf "i%+d" oi in
        let j = if oj = 0 then "j" else Printf.sprintf "j%+d" oj in
        Printf.sprintf "0.%d1 * src(%s, %s)" ((idx mod 8) + 1) i j)
      cfg.rc_offs
  in
  let sum = String.concat "\n     &      + " terms in
  let target = if cfg.rc_self then "src" else "dst" in
  let bc =
    if cfg.rc_bc then
      {|
        do j = 1, n
          src(1, j) = src(2, j) * 0.9
        end do
        do i = 1, m
          src(i, n) = 0.25
        end do|}
    else ""
  in
  Printf.sprintf
    {|
c$acfd grid(m, n)
c$acfd status(src, dst)
      program rand
      parameter (m = 13, n = 11)
      real src(m, n), dst(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          src(i, j) = float(mod(i * 7 + j * 13 + %d, 19)) * 0.1
          dst(i, j) = 0.0
        end do
      end do
      do it = 1, 3
%s
        do i = 2, m - 1
          do j = 2, n - 1
            %s(i, j) = %s
          end do
        end do
        do i = 2, m - 1
          do j = 2, n - 1
            src(i, j) = 0.5 * src(i, j) + 0.5 * dst(i, j)
          end do
        end do
      end do
      write(*,*) src(m/2, n/2)
      end
|}
    cfg.rc_seed bc target sum

let prop_random_programs_equivalent =
  QCheck.Test.make ~count:120
    ~name:"random stencil programs: SPMD == sequential"
    (QCheck.make
       ~print:(fun cfg ->
         Printf.sprintf "parts=%dx%d\n%s" cfg.rc_parts.(0) cfg.rc_parts.(1)
           (program_of_cfg cfg))
       gen_cfg)
    (fun cfg ->
      let src = program_of_cfg cfg in
      max_div src cfg.rc_parts = 0.0)



let test_goto_convergence_loop () =
  (* a while-style iteration built from a backward GOTO: the in-loop
     exchange must still be placed (virtual carrying loop) *)
  check_equiv "goto convergence loop"
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 16, n = 12)
      real u(m, n), w(m, n)
      real errmax
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i) + 0.1 * float(j)
        end do
      end do
      it = 0
 100  continue
      it = it + 1
      do i = 2, m - 1
        do j = 2, n - 1
          w(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
        end do
      end do
      errmax = 0.0
      do i = 2, m - 1
        do j = 2, n - 1
          errmax = max(errmax, abs(w(i,j) - u(i,j)))
          u(i, j) = w(i, j)
        end do
      end do
      if (errmax .gt. 1.0e-4 .and. it .lt. 30) goto 100
      write(*,*) it, errmax
      end
|}
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 3; 2 |] ]

let test_goto_self_dependent_loop () =
  (* gauss-seidel inside a backward-GOTO loop: the Self pair's
     wrap-around exchange rides the virtual carrying loop *)
  check_equiv "goto gauss-seidel"
    {|
c$acfd grid(m, n)
c$acfd status(v)
      program t
      parameter (m = 14, n = 12)
      real v(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          v(i, j) = float(i * j)
        end do
      end do
      it = 0
 200  continue
      it = it + 1
      do i = 2, m - 1
        do j = 2, n - 1
          v(i,j) = 0.25 * (v(i-1,j) + v(i+1,j) + v(i,j-1) + v(i,j+1))
        end do
      end do
      if (it .lt. 6) goto 200
      write(*,*) v(3, 3)
      end
|}
    [ [| 2; 1 |]; [| 2; 2 |] ]


let test_distance_two_pipeline () =
  (* self-dependent recurrence at distance 2: the pipeline carries
     two planes per hop *)
  check_equiv "distance-2 self-dependent pipeline"
    {|
c$acfd grid(m)
c$acfd status(v)
      program t
      parameter (m = 26)
      real v(m)
      integer i, it
      do i = 1, m
        v(i) = float(i) * 0.1
      end do
      do it = 1, 4
        do i = 3, m
          v(i) = 0.4 * v(i-1) + 0.3 * v(i-2) + 0.1
        end do
      end do
      write(*,*) v(m)
      end
|}
    [ [| 2 |]; [| 3 |]; [| 4 |] ]

let test_mixed_depth_exchange () =
  (* one reader needs depth 2, another depth 1, of the same array: the
     combined exchange must carry the max depth *)
  check_equiv "mixed-depth combined exchange"
    {|
c$acfd grid(m)
c$acfd status(u, w, z)
      program t
      parameter (m = 24)
      real u(m), w(m), z(m)
      integer i, it
      do i = 1, m
        u(i) = float(i)
        w(i) = 0.0
        z(i) = 0.0
      end do
      do it = 1, 3
        do i = 3, m - 2
          w(i) = u(i-2) + u(i+2)
        end do
        do i = 2, m - 1
          z(i) = u(i-1) + u(i+1)
        end do
        do i = 2, m - 1
          u(i) = 0.5 * (w(i) + z(i))
        end do
      end do
      write(*,*) u(m/2)
      end
|}
    [ [| 2 |]; [| 4 |] ]

let test_uncut_dimension_needs_no_comm () =
  (* a 1-D partition of a 2-D problem whose stencil only crosses the
     uncut dimension: zero messages *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 12, n = 10)
      real u(m, n), w(m, n)
      integer i, j, it
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i + j)
        end do
      end do
      do it = 1, 3
        do i = 1, m
          do j = 2, n - 1
            w(i, j) = u(i, j-1) + u(i, j+1)
          end do
        end do
        do i = 1, m
          do j = 2, n - 1
            u(i, j) = w(i, j)
          end do
        end do
      end do
      write(*,*) it
      end
|}
  in
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec [| 3; 1 |]) t in
  let seq = D.run_seq t in
  let par = D.run plan in
  Alcotest.(check int) "no point-to-point messages" 0
    par.I.Spmd.stats.Autocfd_mpsim.Sim.messages;
  let worst =
    List.fold_left (fun a (_, d) -> Float.max a d) 0.0
      (D.max_divergence seq par)
  in
  Alcotest.(check (float 0.0)) "still equivalent" 0.0 worst

let test_branch_in_time_loop () =
  (* Fig. 7-style: a branch whose condition flips over iterations, with
     an A-loop in the then-branch and the reader after the branch *)
  check_equiv "branch-dependent writer"
    {|
c$acfd grid(m)
c$acfd status(u, w)
      program t
      parameter (m = 18)
      real u(m), w(m)
      integer i, it
      do i = 1, m
        u(i) = float(i)
        w(i) = 0.0
      end do
      do it = 1, 6
        if (mod(it, 2) .eq. 0) then
          do i = 2, m - 1
            u(i) = u(i) + 1.0
          end do
        else
          do i = 2, m - 1
            u(i) = u(i) - 0.5
          end do
        end if
        do i = 2, m - 1
          w(i) = u(i-1) + u(i+1)
        end do
        do i = 2, m - 1
          u(i) = 0.9 * u(i) + 0.1 * w(i)
        end do
      end do
      write(*,*) u(m/2)
      end
|}
    [ [| 2 |]; [| 3 |]; [| 5 |] ]



let test_partial_participation_reduction () =
  (* a surface-integral Sum over a fixed plane of an unswept cut
     dimension: only the plane's owner ranks execute (guarded), combined
     with allreduce — no allgather fallback *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(p)
      program t
      parameter (m = 16, n = 12)
      real p(m, n)
      real cl
      integer i, j, it
      do i = 1, m
        do j = 1, n
          p(i, j) = float(i) * 0.1 + float(j)
        end do
      end do
      do it = 1, 3
        do i = 2, m - 1
          do j = 2, n - 1
            p(i, j) = 0.25 * (p(i-1,j) + p(i+1,j) + p(i,j-1) + p(i,j+1))
          end do
        end do
        cl = 0.0
        do i = 2, m - 1
          cl = cl + p(i, 1)
        end do
      end do
      write(*,*) cl
      end
|}
  in
  check_equiv "guarded surface reduction" src
    [ [| 2; 1 |]; [| 1; 2 |]; [| 2; 2 |]; [| 1; 4 |] ];
  (* the transform must use the guard, not the allgather fallback *)
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec [| 1; 2 |]) t in
  let has_allgather = ref false in
  Autocfd_fortran.Ast.iter_stmts
    (fun st ->
      match st.Autocfd_fortran.Ast.s_kind with
      | Autocfd_fortran.Ast.Comm (Autocfd_fortran.Ast.Allgather _) ->
          has_allgather := true
      | _ -> ())
    plan.D.spmd.Autocfd_fortran.Ast.u_body;
  Alcotest.(check bool) "no allgather needed" false !has_allgather

(* The run walker: a box's runs expand to exactly the Value.linear_index
   offsets of its elements in column-major order (dimension 0 fastest),
   and copying the runs equals copying the elements one by one.  Bounds
   and sub-boxes are random, empty sub-boxes included. *)
let prop_box_runs =
  let gen =
    QCheck.Gen.(
      let* rank = int_range 1 3 in
      list_repeat rank
        (let* lo = int_range (-3) 3 in
         let* ext = int_range 1 6 in
         let hi = lo + ext - 1 in
         let* a = int_range lo hi in
         let* b = int_range (a - 1) hi in
         return ((lo, hi), (a, b))))
  in
  let print dims =
    String.concat " "
      (List.map
         (fun ((lo, hi), (a, b)) -> Printf.sprintf "%d:%d[%d:%d]" lo hi a b)
         dims)
  in
  QCheck.Test.make ~count:500 ~name:"box runs: column-major offsets, copies"
    (QCheck.make ~print gen) (fun dims ->
      let bounds = Array.of_list (List.map fst dims) in
      let box = Array.of_list (List.map snd dims) in
      let src = I.Value.make_array bounds in
      Array.iteri (fun i _ -> src.I.Value.data.(i) <- float_of_int (i + 1))
        src.I.Value.data;
      (* every index of [box], dimension 0 fastest *)
      let rec indices d =
        if d < 0 then [ [] ]
        else
          let lo, hi = box.(d) in
          List.concat_map
            (fun i -> List.map (fun lower -> lower @ [ i ]) (indices (d - 1)))
            (List.init (max 0 (hi - lo + 1)) (fun k -> lo + k))
      in
      let idxs = List.map Array.of_list (indices (Array.length box - 1)) in
      let r = I.Spmd.box_runs src box in
      let expanded =
        List.concat_map
          (fun start -> List.init r.I.Spmd.run_len (fun i -> start + i))
          (Array.to_list r.I.Spmd.run_starts)
      in
      let by_runs = I.Value.make_array bounds in
      I.Spmd.blit_runs r ~src:src.I.Value.data ~dst:by_runs.I.Value.data;
      let by_elements = I.Value.make_array bounds in
      List.iter
        (fun idx -> I.Value.set by_elements idx (I.Value.get src idx))
        idxs;
      expanded = List.map (I.Value.linear_index src) idxs
      && by_runs.I.Value.data = by_elements.I.Value.data)

let suite =
  [
    ("jacobi", `Quick, test_jacobi);
    ("gauss-seidel mirror", `Quick, test_gauss_seidel_mirror);
    ("wavefront recurrence", `Quick, test_wavefront_recurrence);
    ("distance-2", `Quick, test_distance_two);
    ("packed array", `Quick, test_packed_array);
    ("boundary fixed planes", `Quick, test_boundary_fixed_planes);
    ("reductions", `Quick, test_reductions);
    ("descending sweep", `Quick, test_descending_sweep);
    ("3-D", `Quick, test_three_dims);
    ("read broadcast", `Quick, test_read_broadcast);
    ("serial fallback allgather", `Quick, test_serial_fallback_allgather);
    ("distance-2 pipeline", `Quick, test_distance_two_pipeline);
    ("mixed-depth exchange", `Quick, test_mixed_depth_exchange);
    ("uncut dimension no comm", `Quick, test_uncut_dimension_needs_no_comm);
    ("branch-dependent writer", `Quick, test_branch_in_time_loop);
    ("partial-participation reduction", `Quick, test_partial_participation_reduction);
    ("goto convergence loop", `Quick, test_goto_convergence_loop);
    ("goto self-dependent loop", `Quick, test_goto_self_dependent_loop);
    ("fixed-plane write in its sweep", `Quick, test_fixed_plane_write_in_sweep);
    ( "fixed-plane read through a temporary", `Quick,
      test_fixed_plane_read_through_temporary );
    ("loop variable in two dimensions", `Quick, test_loop_var_in_two_dims);
    ("live-out scalar temporaries", `Quick, test_live_out_scalar);
    QCheck_alcotest.to_alcotest ~long:false prop_random_programs_equivalent;
    QCheck_alcotest.to_alcotest prop_box_runs;
  ]
