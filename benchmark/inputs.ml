(* Workload inputs, generated from the seed.  The seed scales each
   program's driving velocity (aerofoil uinf, sprayer ufan, cavity ulid,
   heat2d's initial amplitude) by a factor in [0.9, 1.1) and shuffles the
   order configurations are visited in.  Neither changes the amount of
   work: partitions, grids and trip counts are fixed, only the data
   differs. *)

module Prng = Autocfd_util.Prng
module Apps = Autocfd_apps

type size = Paper | L2 | Small

(* the bundled examples/heat2d.f with its initial field scaled by [amp] *)
let heat2d ~amp =
  Printf.sprintf
    {|c$acfd grid(m, n)
c$acfd status(u, w)
      program heat2d
      parameter (m = 60, n = 30, ntime = 40)
      real u(m, n), w(m, n)
      real errmax, eps, amp
      integer i, j, it
      eps = 1.0e-4
      amp = %f
      do 10 i = 1, m
        do 10 j = 1, n
          u(i, j) = amp * (0.001 * float(i) * float(i) + 0.02 * float(j))
          w(i, j) = 0.0
 10   continue
      do 500 it = 1, ntime
        do 100 i = 2, m - 1
          do 100 j = 2, n - 1
            w(i, j) = 0.25 * (u(i-1,j) + u(i+1,j) + u(i,j-1) + u(i,j+1))
 100    continue
        errmax = 0.0
        do 200 i = 2, m - 1
          do 200 j = 2, n - 1
            errmax = max(errmax, abs(w(i, j) - u(i, j)))
            u(i, j) = w(i, j)
 200    continue
        if (errmax .lt. eps) goto 900
 500  continue
 900  continue
      write(*,*) it, errmax
      end
|}
    amp

type program = { name : string; source : string }

let scale g = 0.9 +. Prng.float g 0.2

(* every bundled program, in a fixed order; one scale draw per program *)
let programs ~size g =
  let uinf = scale g in
  let ufan = scale g in
  let ulid = scale g in
  let amp = scale g in
  let aerofoil, sprayer =
    match size with
    | Paper ->
        (* the paper's grids with a quarter of the default time steps, so
           a run holds enough ops for stable medians *)
        ( Apps.Aerofoil.source ~ntime:5 ~uinf (),
          Apps.Sprayer.source ~ntime:15 ~ufan () )
    | L2 ->
        (* about 1 MB of field data, inside one core's 2 MB L2: the
           single-threaded simulator then does not depend on how busy the
           shared L3 is, which made paper-grid timings drift by 8% *)
        ( Apps.Aerofoil.source ~ni:48 ~nj:24 ~nk:12 ~ntime:20 ~uinf (),
          Apps.Sprayer.source ~ni:160 ~nj:80 ~ntime:50 ~ufan () )
    | Small ->
        ( Apps.Aerofoil.source ~ni:24 ~nj:12 ~nk:8 ~ntime:2 ~uinf (),
          Apps.Sprayer.source ~ni:60 ~nj:30 ~ntime:4 ~ufan () )
  in
  [
    { name = "aerofoil"; source = aerofoil };
    { name = "sprayer"; source = sprayer };
    { name = "cavity"; source = Apps.Cavity.source ~ulid () };
    { name = "heat2d"; source = heat2d ~amp };
  ]

let shuffle g l =
  let a = Array.of_list l in
  Prng.shuffle g a;
  Array.to_list a
