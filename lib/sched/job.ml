module J = Autocfd_obs.Json

type t = {
  jb_label : string;
  jb_key : J.t;
  jb_run : unit -> J.t;
  jb_spec : J.t option;
}

(* bump when a code change invalidates previously cached results *)
(* /2: the Runspec JSON codec grew plan-time fields (nprocs, parts,
   combine, fission, fuse), changing the content of every spec-keyed
   result.  /3: the codec dropped [fuse] and the engine rows their tree
   and closure-IR fields *)
let code_version = "autocfd-sched/3"

let make ?(version = code_version) ?spec ~label ~key run =
  {
    jb_label = label;
    jb_key = J.Obj [ ("code", J.Str version); ("spec", key) ];
    jb_run = run;
    jb_spec = spec;
  }

(* FNV-1a, 64-bit *)
let fnv64 s =
  let offset_basis = 0xcbf29ce484222325L in
  let prime = 0x100000001b3L in
  let h = ref offset_basis in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h prime)
    s;
  !h

let digest s = Printf.sprintf "%016Lx" (fnv64 s)

let cache_name job = digest (J.canonical job.jb_key)
