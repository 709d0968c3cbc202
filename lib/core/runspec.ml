module I = Autocfd_interp
module M = Autocfd_mpsim
module PM = Autocfd_perfmodel.Model
module S = Autocfd_syncopt
module J = Autocfd_obs.Json

type t = {
  engine : I.Spmd.engine;
  machine : PM.machine option;
  input : float list;
  tracer : Autocfd_obs.Trace.t option;
  faults : M.Fault.plan option;
  recovery : I.Spmd.recovery option;
  nprocs : int;
  parts : int array option;
  combine : S.Optimizer.combine_strategy;
  fission : bool;
}

let default =
  {
    engine = I.Spmd.Fused;
    machine = None;
    input = [];
    tracer = None;
    faults = None;
    recovery = None;
    nprocs = 4;
    parts = None;
    combine = S.Optimizer.Optimal;
    fission = true;
  }

let with_engine engine t = { t with engine }
let with_machine machine t = { t with machine }
let with_input input t = { t with input }
let with_tracer tracer t = { t with tracer }
let with_faults faults t = { t with faults }
let with_recovery recovery t = { t with recovery }
let with_nprocs nprocs t = { t with nprocs }
let with_parts parts t = { t with parts }
let with_combine combine t = { t with combine }
let with_fission fission t = { t with fission }

(* ------------------------------------------------------------------ *)
(* Canonical JSON codec                                                *)
(* ------------------------------------------------------------------ *)

let fail msg = raise (J.Parse_error ("Runspec.of_json: " ^ msg))

let engine_to_string = function
  | I.Spmd.Fused -> "fused"
  | I.Spmd.Domains -> "domains"

let engine_of_string = function
  | "fused" -> I.Spmd.Fused
  | "domains" -> I.Spmd.Domains
  | s -> fail (Printf.sprintf "unknown engine %S (fused|domains)" s)

let net_to_json (n : M.Netmodel.t) =
  J.Obj
    [
      ("latency", J.Float n.M.Netmodel.latency);
      ("bandwidth", J.Float n.M.Netmodel.bandwidth);
      ("send_overhead", J.Float n.M.Netmodel.send_overhead);
      ("recv_overhead", J.Float n.M.Netmodel.recv_overhead);
    ]

let get name j =
  match J.member name j with
  | Some v -> v
  | None -> fail (Printf.sprintf "missing field %S" name)

let get_float name j = J.to_float_exn (get name j)

let get_int name j =
  match get name j with
  | J.Int i -> i
  | _ -> fail (Printf.sprintf "field %S: expected an integer" name)

let get_string name j =
  match get name j with
  | J.Str s -> s
  | _ -> fail (Printf.sprintf "field %S: expected a string" name)

let net_of_json j =
  {
    M.Netmodel.latency = get_float "latency" j;
    bandwidth = get_float "bandwidth" j;
    send_overhead = get_float "send_overhead" j;
    recv_overhead = get_float "recv_overhead" j;
  }

let machine_to_json (m : PM.machine) =
  J.Obj
    [
      ("flop_rate", J.Float m.PM.flop_rate);
      ("cache_bytes", J.Float m.PM.cache_bytes);
      ("cache_penalty", J.Float m.PM.cache_penalty);
      ("mem_bytes", J.Float m.PM.mem_bytes);
      ("mem_penalty", J.Float m.PM.mem_penalty);
      ("net", net_to_json m.PM.net);
      ("overlap", J.Float m.PM.overlap);
    ]

let machine_of_json j =
  {
    PM.flop_rate = get_float "flop_rate" j;
    cache_bytes = get_float "cache_bytes" j;
    cache_penalty = get_float "cache_penalty" j;
    mem_bytes = get_float "mem_bytes" j;
    mem_penalty = get_float "mem_penalty" j;
    net = net_of_json (get "net" j);
    overlap = get_float "overlap" j;
  }

let trigger_to_json = function
  | M.Fault.At_time t -> J.Obj [ ("at_time", J.Float t) ]
  | M.Fault.At_op n -> J.Obj [ ("at_op", J.Int n) ]

let trigger_of_json j =
  match (J.member "at_time" j, J.member "at_op" j) with
  | Some t, None -> M.Fault.At_time (J.to_float_exn t)
  | None, Some (J.Int n) -> M.Fault.At_op n
  | _ -> fail "trigger: expected {\"at_time\": t} or {\"at_op\": n}"

let faults_to_json plan =
  let s = M.Fault.spec_of plan in
  J.Obj
    [
      ("seed", J.Int s.M.Fault.fs_seed);
      ("loss", J.Float s.M.Fault.fs_loss);
      ("duplication", J.Float s.M.Fault.fs_duplication);
      ("corruption", J.Float s.M.Fault.fs_corruption);
      ("jitter", J.Float s.M.Fault.fs_jitter);
      ("reorder", J.Float s.M.Fault.fs_reorder);
      ( "degrade",
        J.List
          (List.map
             (fun (src, dest, f) ->
               J.Obj
                 [
                   ("src", J.Int src); ("dest", J.Int dest);
                   ("factor", J.Float f);
                 ])
             s.M.Fault.fs_degrade) );
      ( "stalls",
        J.List
          (List.map
             (fun (st : M.Fault.stall_spec) ->
               J.Obj
                 [
                   ("rank", J.Int st.M.Fault.sl_rank);
                   ("at", trigger_to_json st.M.Fault.sl_at);
                   ("duration", J.Float st.M.Fault.sl_duration);
                 ])
             s.M.Fault.fs_stalls) );
      ( "crashes",
        J.List
          (List.map
             (fun (c : M.Fault.crash_spec) ->
               J.Obj
                 [
                   ("rank", J.Int c.M.Fault.cr_rank);
                   ("at", trigger_to_json c.M.Fault.cr_at);
                 ])
             s.M.Fault.fs_crashes) );
    ]

let get_list name j =
  match get name j with
  | J.List l -> l
  | _ -> fail (Printf.sprintf "field %S: expected a list" name)

let faults_of_json j =
  let degrade =
    List.map
      (fun d -> (get_int "src" d, get_int "dest" d, get_float "factor" d))
      (get_list "degrade" j)
  in
  let stalls =
    List.map
      (fun s ->
        {
          M.Fault.sl_rank = get_int "rank" s;
          sl_at = trigger_of_json (get "at" s);
          sl_duration = get_float "duration" s;
        })
      (get_list "stalls" j)
  in
  let crashes =
    List.map
      (fun c ->
        {
          M.Fault.cr_rank = get_int "rank" c;
          cr_at = trigger_of_json (get "at" c);
        })
      (get_list "crashes" j)
  in
  (* absent in documents written before the reorder knob existed *)
  let reorder =
    match J.member "reorder" j with Some v -> J.to_float_exn v | None -> 0.0
  in
  M.Fault.make
    (M.Fault.spec ~seed:(get_int "seed" j) ~loss:(get_float "loss" j)
       ~duplication:(get_float "duplication" j)
       ~corruption:(get_float "corruption" j)
       ~jitter:(get_float "jitter" j) ~reorder ~degrade ~stalls ~crashes ())

let recovery_to_json (r : I.Spmd.recovery) =
  J.Obj
    [
      ("every", J.Int r.I.Spmd.rc_every);
      ("max_restarts", J.Int r.I.Spmd.rc_max_restarts);
      ("bandwidth", J.Float r.I.Spmd.rc_bandwidth);
    ]

let recovery_of_json j =
  {
    I.Spmd.rc_every = get_int "every" j;
    rc_max_restarts = get_int "max_restarts" j;
    rc_bandwidth = get_float "bandwidth" j;
  }

let combine_to_string = function
  | S.Optimizer.Optimal -> "optimal"
  | S.Optimizer.First_fit -> "first-fit"

let combine_of_string = function
  | "optimal" -> S.Optimizer.Optimal
  | "first-fit" -> S.Optimizer.First_fit
  | s -> fail (Printf.sprintf "unknown combine strategy %S" s)

let parts_to_string p =
  String.concat "x" (Array.to_list (Array.map string_of_int p))

let parts_of_string s =
  let part p =
    match int_of_string_opt (String.trim p) with
    | Some n when n >= 1 -> n
    | _ -> fail (Printf.sprintf "bad partition shape %S" s)
  in
  Array.of_list
    (List.map part (String.split_on_char 'x' (String.lowercase_ascii s)))

let opt f = function Some v -> f v | None -> J.Null

(* [net] and [flop_time] are retired: [machine] is the one cost setting.
   A spec document still carries them at the values every spec had
   before (the fast network, free flops), so spec documents, cache keys
   and tune JSON keep their bytes; [of_json] accepts those values only,
   since any other would silently change what the spec names *)
let retired =
  [
    ( "net",
      net_to_json M.Netmodel.fast,
      fun v -> net_of_json v = M.Netmodel.fast );
    ("flop_time", J.Float 0.0, fun v -> J.to_float_exn v = 0.0);
  ]

let to_json t =
  J.Obj
    ((("engine", J.Str (engine_to_string t.engine))
     :: List.map (fun (name, v, _) -> (name, v)) retired)
    @ [
        ("machine", opt machine_to_json t.machine);
        ("input", J.List (List.map (fun f -> J.Float f) t.input));
        ("traced", J.Bool (t.tracer <> None));
        ("faults", opt faults_to_json t.faults);
        ("recovery", opt recovery_to_json t.recovery);
        ("nprocs", J.Int t.nprocs);
        ("parts", opt (fun p -> J.Str (parts_to_string p)) t.parts);
        ("combine", J.Str (combine_to_string t.combine));
        ("fission", J.Bool t.fission);
      ])

let opt_of name f j =
  match get name j with J.Null -> None | v -> Some (f v)

(* the plan-time fields are absent in documents written before the
   tune-era codec; each decodes to its [default] value so an old spec
   still names the run it always named *)
let get_or name fallback decode j =
  match J.member name j with
  | None | Some J.Null -> fallback
  | Some v -> decode v

let get_bool_or name fallback j =
  get_or name fallback
    (function
      | J.Bool b -> b
      | _ -> fail (Printf.sprintf "field %S: expected a boolean" name))
    j

let of_json j =
  List.iter
    (fun (name, _, is_default) ->
      match J.member name j with
      | Some v when not (is_default v) ->
          fail
            (Printf.sprintf
               "field %S is retired: set \"machine\" to charge a network \
                and per-flop cost"
               name)
      | _ -> ())
    retired;
  {
    engine = engine_of_string (get_string "engine" j);
    machine = opt_of "machine" machine_of_json j;
    input = List.map J.to_float_exn (get_list "input" j);
    tracer =
      (match get "traced" j with
      | J.Bool true -> Some (Autocfd_obs.Trace.create ())
      | J.Bool false -> None
      | _ -> fail "field \"traced\": expected a boolean");
    faults = opt_of "faults" faults_of_json j;
    recovery = opt_of "recovery" recovery_of_json j;
    nprocs =
      get_or "nprocs" default.nprocs
        (function
          | J.Int i -> i
          | _ -> fail "field \"nprocs\": expected an integer")
        j;
    parts =
      (match J.member "parts" j with
      | None | Some J.Null -> None
      | Some (J.Str s) -> Some (parts_of_string s)
      | Some _ -> fail "field \"parts\": expected a shape string");
    combine =
      get_or "combine" default.combine
        (function
          | J.Str s -> combine_of_string s
          | _ -> fail "field \"combine\": expected a string")
        j;
    fission = get_bool_or "fission" default.fission j;
  }
