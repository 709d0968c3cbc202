module Prng = Autocfd_util.Prng

type trigger = At_time of float | At_op of int

type stall_spec = { sl_rank : int; sl_at : trigger; sl_duration : float }
type crash_spec = { cr_rank : int; cr_at : trigger }

type spec = {
  fs_seed : int;
  fs_loss : float;
  fs_duplication : float;
  fs_corruption : float;
  fs_jitter : float;
  fs_reorder : float;
  fs_degrade : (int * int * float) list;
  fs_stalls : stall_spec list;
  fs_crashes : crash_spec list;
}

let spec ~seed ?(loss = 0.0) ?(duplication = 0.0) ?(corruption = 0.0)
    ?(jitter = 0.0) ?(reorder = 0.0) ?(degrade = []) ?(stalls = [])
    ?(crashes = []) () =
  let prob name p =
    if p < 0.0 || p > 1.0 then
      invalid_arg (Printf.sprintf "Fault.spec: %s=%g not in [0, 1]" name p)
  in
  prob "loss" loss;
  prob "duplication" duplication;
  prob "corruption" corruption;
  prob "reorder" reorder;
  if jitter < 0.0 then invalid_arg "Fault.spec: negative jitter";
  List.iter
    (fun (s, d, f) ->
      if f < 1.0 then
        invalid_arg
          (Printf.sprintf "Fault.spec: degrade factor %g < 1 on link %d->%d" f
             s d))
    degrade;
  List.iter
    (fun s ->
      if s.sl_duration < 0.0 then
        invalid_arg "Fault.spec: negative stall duration")
    stalls;
  {
    fs_seed = seed;
    fs_loss = loss;
    fs_duplication = duplication;
    fs_corruption = corruption;
    fs_jitter = jitter;
    fs_reorder = reorder;
    fs_degrade = degrade;
    fs_stalls = stalls;
    fs_crashes = crashes;
  }

type counters = {
  fc_drops : int;
  fc_duplicates : int;
  fc_corruptions : int;
  fc_reorders : int;
  fc_stalls : int;
  fc_crashes : int;
}

type plan = {
  p_spec : spec;
  p_link_idx : (int * int, int ref) Hashtbl.t;
  p_rank_ops : (int, int ref) Hashtbl.t;
  p_stall_fired : bool array;  (** per spec index; reset each run *)
  p_crash_fired : bool array;  (** per spec index; survives restarts *)
  mutable p_drops : int;
  mutable p_duplicates : int;
  mutable p_corruptions : int;
  mutable p_reorders : int;
  mutable p_stalls : int;
  mutable p_crashes : int;
}

let make s =
  {
    p_spec = s;
    p_link_idx = Hashtbl.create 16;
    p_rank_ops = Hashtbl.create 16;
    p_stall_fired = Array.make (List.length s.fs_stalls) false;
    p_crash_fired = Array.make (List.length s.fs_crashes) false;
    p_drops = 0;
    p_duplicates = 0;
    p_corruptions = 0;
    p_reorders = 0;
    p_stalls = 0;
    p_crashes = 0;
  }

let spec_of p = p.p_spec

let counters p =
  {
    fc_drops = p.p_drops;
    fc_duplicates = p.p_duplicates;
    fc_corruptions = p.p_corruptions;
    fc_reorders = p.p_reorders;
    fc_stalls = p.p_stalls;
    fc_crashes = p.p_crashes;
  }

let any_fired p =
  p.p_drops + p.p_duplicates + p.p_corruptions + p.p_reorders + p.p_stalls
  + p.p_crashes
  > 0

let begin_run p =
  Hashtbl.reset p.p_link_idx;
  Hashtbl.reset p.p_rank_ops;
  Array.fill p.p_stall_fired 0 (Array.length p.p_stall_fired) false

type send_verdict = {
  sv_drop : bool;
  sv_duplicate : bool;
  sv_corrupt : (int * int) option;
  sv_delay : float;
  sv_reorder : bool;
  sv_factor : float;
}

let clean_verdict =
  {
    sv_drop = false;
    sv_duplicate = false;
    sv_corrupt = None;
    sv_delay = 0.0;
    sv_reorder = false;
    sv_factor = 1.0;
  }

let counter tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace tbl key r;
      r

(* One private stream per (seed, src, dest, link send index): verdicts do
   not depend on the global interleaving of sends, only on the per-link
   sequence number, so retransmissions of a dropped message get fresh
   draws and an identical schedule replays identically. *)
let message_gen p ~src ~dest ~idx =
  let h = p.p_spec.fs_seed in
  let h = (h * 0x1000193) + src + 1 in
  let h = (h * 0x1000193) + dest + 1 in
  let h = (h * 0x1000193) + idx + 1 in
  Prng.create (h land max_int)

let on_send p ~src ~dest ~words =
  let s = p.p_spec in
  let idx = counter p.p_link_idx (src, dest) in
  let k = !idx in
  incr idx;
  let factor =
    List.fold_left
      (fun acc (fs, fd, f) -> if fs = src && fd = dest then Float.max acc f else acc)
      1.0 s.fs_degrade
  in
  let randomized =
    s.fs_loss > 0.0 || s.fs_duplication > 0.0 || s.fs_corruption > 0.0
    || s.fs_jitter > 0.0 || s.fs_reorder > 0.0
  in
  if not randomized then { clean_verdict with sv_factor = factor }
  else begin
    let g = message_gen p ~src ~dest ~idx:k in
    (* fixed draw order keeps the schedule stable across rate changes *)
    let u_loss = Prng.float g 1.0 in
    let u_dup = Prng.float g 1.0 in
    let u_cor = Prng.float g 1.0 in
    let delay = if s.fs_jitter > 0.0 then Prng.float g s.fs_jitter else 0.0 in
    let drop = u_loss < s.fs_loss in
    let dup = (not drop) && u_dup < s.fs_duplication in
    let corrupt =
      if (not drop) && words > 0 && u_cor < s.fs_corruption then
        Some (Prng.int g words, Prng.int g 64)
      else None
    in
    (* drawn after the original fields so pre-existing schedules replay
       unchanged when reorder stays 0 *)
    let reorder =
      (not drop)
      && s.fs_reorder > 0.0
      && Prng.float g 1.0 < s.fs_reorder
    in
    if drop then p.p_drops <- p.p_drops + 1;
    if dup then p.p_duplicates <- p.p_duplicates + 1;
    if corrupt <> None then p.p_corruptions <- p.p_corruptions + 1;
    if reorder then p.p_reorders <- p.p_reorders + 1;
    {
      sv_drop = drop;
      sv_duplicate = dup;
      sv_corrupt = corrupt;
      sv_delay = delay;
      sv_reorder = reorder;
      sv_factor = factor;
    }
  end

type op_action = Op_none | Op_stall of float | Op_crash

let triggered at ~ops ~time =
  match at with At_time t -> time >= t | At_op n -> ops >= n

let on_op p ~rank ~time ~is_op =
  let s = p.p_spec in
  if s.fs_stalls = [] && s.fs_crashes = [] then Op_none
  else begin
    let ops_r = counter p.p_rank_ops rank in
    if is_op then incr ops_r;
    let ops = !ops_r in
    let action = ref Op_none in
    List.iteri
      (fun i sl ->
        if
          !action = Op_none && sl.sl_rank = rank
          && (not p.p_stall_fired.(i))
          && triggered sl.sl_at ~ops ~time
        then begin
          p.p_stall_fired.(i) <- true;
          p.p_stalls <- p.p_stalls + 1;
          action := Op_stall sl.sl_duration
        end)
      s.fs_stalls;
    if !action = Op_none then
      List.iteri
        (fun i cr ->
          if
            !action = Op_none && cr.cr_rank = rank
            && (not p.p_crash_fired.(i))
            && triggered cr.cr_at ~ops ~time
          then begin
            p.p_crash_fired.(i) <- true;
            p.p_crashes <- p.p_crashes + 1;
            action := Op_crash
          end)
        s.fs_crashes;
    !action
  end
