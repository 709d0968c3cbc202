(* A fixed reference computation, timed between a workload's set-ups and
   ops on as many domains as the workload keeps busy.  The end-to-end
   set-up, op and round times are reported as multiples of it.  On a
   shared host the wall time of the same op drifted by 10-40% between
   runs a few minutes apart, and the reference kernel drifted with it;
   their ratio moved by a few percent.
   The kernel mixes the two kinds of work the system does: stencil sweeps
   over a float grid that fits in L2 (the fused kernels) and building and
   walking a string-keyed map (the pre-compiler's allocation and pointer
   chasing). *)

let stencil () =
  let n = 256 in
  let a = Array.make (n * n) 1.0 and b = Array.make (n * n) 0.0 in
  for _ = 1 to 24 do
    for i = 1 to n - 2 do
      for j = 1 to n - 2 do
        let k = (i * n) + j in
        b.(k) <- 0.25 *. (a.(k - 1) +. a.(k + 1) +. a.(k - n) +. a.(k + n))
      done
    done;
    Array.blit b 0 a 0 (n * n)
  done;
  a.(n + 1)

module M = Map.Make (String)

let symbols () =
  let m = ref M.empty in
  for i = 1 to 20_000 do
    m := M.add (string_of_int (i * 7919 mod 20_011)) i !m
  done;
  M.fold (fun _ v acc -> acc + v) !m 0

let kernel () =
  ignore (Sys.opaque_identity (stencil ()));
  ignore (Sys.opaque_identity (symbols ()))

(* Seconds per kernel at which setup_s is stated: a round figure for the
   kernel's time on one core of the 2-vCPU Intel Xeon virtual machine the
   benchmark was defined on (15-33 ms as its host's load changed).
   setup_s is the set-up's wall time in kernels times this, so that it
   reads as seconds on that host. *)
let nominal_s = 0.017

(* wall time of the kernel run once on each of [domains] domains at once *)
let measure ~domains =
  snd
    (Stats.time (fun () ->
         let others = List.init (domains - 1) (fun _ -> Domain.spawn kernel) in
         kernel ();
         List.iter Domain.join others))
