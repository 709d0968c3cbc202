(** The references the bit-identity tests hold the fused kernels to: the
    tree-walking {!Autocfd_interp.Machine} ([Spmd.run_tree]) and the
    closure IR without fused kernels ([Spmd.run ~fuse:false],
    [Compile.compile ~fuse:false]).  No run configuration reaches them. *)

module D = Autocfd.Driver
module I = Autocfd_interp

(* the inlined sequential unit on the tree walker *)
let seq_tree (t : D.t) =
  let m = I.Machine.create t.D.inlined in
  I.Machine.run m;
  {
    D.sq_output = I.Machine.output m;
    sq_arrays =
      List.map (fun n -> (n, I.Machine.array m n)) (I.Machine.array_names m);
    sq_flops = I.Machine.flops m;
  }

(* the inlined sequential unit on the closure IR without fused kernels *)
let seq_unfused (t : D.t) =
  let st = I.Compile.create (I.Compile.compile ~fuse:false t.D.inlined) in
  I.Compile.run st;
  {
    D.sq_output = I.Compile.output st;
    sq_arrays =
      List.map (fun n -> (n, I.Compile.array st n)) (I.Compile.array_names st);
    sq_flops = I.Compile.flops st;
  }

(* the SPMD unit on the tree walker, on the simulated cluster *)
let run_tree ?spec plan = I.Spmd.run_tree (D.config ?spec plan) plan.D.spmd

(* the SPMD unit on the closure IR without fused kernels: [Fused] on the
   simulated cluster, [Domains] for real *)
let run_unfused ?(engine = I.Spmd.Fused) ?spec plan =
  I.Spmd.run ~engine ~fuse:false (D.config ?spec plan) plan.D.spmd
