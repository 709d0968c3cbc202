module Trace = Autocfd_obs.Trace

(* fruitless receive rounds before falling back to a blocking wait *)
let max_retries = 20

(* ack-wait rounds in [flush] before the acks are abandoned *)
let flush_retries = 4

(* acks for data tag [t] travel on [t + ack_tag_base], far above the
   executor's data tags *)
let ack_tag_base = 1 lsl 20

(* Deadlines fire only when the whole simulation would otherwise stall,
   so a short timeout costs nothing while data flows and a long one only
   inflates the virtual clock of a rank that was stuck anyway: every
   round waits one MTU flight time. *)
let round_timeout net =
  Float.max 1e-9
    (net.Netmodel.latency
    +. (1500.0 /. net.Netmodel.bandwidth)
    +. net.Netmodel.send_overhead +. net.Netmodel.recv_overhead)

type stats = {
  rl_retransmits : int;
  rl_dup_suppressed : int;
  rl_checksum_failures : int;
  rl_acks : int;
}

type t = {
  c : Sim.comm;
  timeout : float;
  send_seq : (int * int, int ref) Hashtbl.t;  (* (dest, tag) -> next seq *)
  unacked : (int * int * int, float array) Hashtbl.t;
      (* (dest, tag, seq) -> envelope as sent *)
  recv_next : (int * int, int ref) Hashtbl.t;  (* (src, tag) -> expected *)
  recv_buf : (int * int * int, float array) Hashtbl.t;
      (* (src, tag, seq) -> payload, seq >= expected *)
  mutable n_retransmits : int;
  mutable n_dup : int;
  mutable n_cksum : int;
  mutable n_acks : int;
}

let create c =
  {
    c;
    timeout = round_timeout (Sim.net_of c);
    send_seq = Hashtbl.create 8;
    unacked = Hashtbl.create 16;
    recv_next = Hashtbl.create 8;
    recv_buf = Hashtbl.create 16;
    n_retransmits = 0;
    n_dup = 0;
    n_cksum = 0;
    n_acks = 0;
  }

let stats t =
  {
    rl_retransmits = t.n_retransmits;
    rl_dup_suppressed = t.n_dup;
    rl_checksum_failures = t.n_cksum;
    rl_acks = t.n_acks;
  }

let counter tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.replace tbl key r;
      r

let ack_tag tag = tag + ack_tag_base

(* FNV-1a over the sequence number and the payload's IEEE bit patterns,
   truncated to 53 bits so the checksum is an exact integer-valued float
   (bit-flips in the stored checksum itself then always mismatch). *)
let checksum_env ~seq env ~off =
  let h = ref 0xcbf29ce484222325L in
  let mix x = h := Int64.mul (Int64.logxor !h x) 0x100000001b3L in
  mix (Int64.of_int seq);
  for i = off to Array.length env - 1 do
    mix (Int64.bits_of_float env.(i))
  done;
  Int64.to_float (Int64.shift_right_logical !h 11)

(* [Some seq] iff well-formed and the checksum verifies *)
let decode env =
  if Array.length env < 2 then None
  else
    let seqf = env.(0) in
    if (not (Float.is_integer seqf)) || seqf < 0.0 || seqf > 1e15 then None
    else
      let seq = int_of_float seqf in
      if env.(1) = checksum_env ~seq env ~off:2 then Some seq else None

let process_ack t ~dest ~tag env =
  match decode env with
  | Some seq ->
      if Hashtbl.mem t.unacked (dest, tag, seq) then begin
        Hashtbl.remove t.unacked (dest, tag, seq);
        t.n_acks <- t.n_acks + 1
      end
  | None -> t.n_cksum <- t.n_cksum + 1

(* consume every ack that has already arrived, without blocking *)
let drain_acks t =
  let streams =
    Hashtbl.fold (fun (d, tg, _) _ acc -> (d, tg) :: acc) t.unacked []
    |> List.sort_uniq compare
  in
  List.iter
    (fun (d, tg) ->
      let rec go () =
        match Sim.try_recv t.c ~src:d ~tag:(ack_tag tg) with
        | Some env ->
            process_ack t ~dest:d ~tag:tg env;
            go ()
        | None -> ()
      in
      go ())
    streams

let retransmit_all t =
  let pending =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.unacked []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun ((dest, tag, seq), env) ->
      t.n_retransmits <- t.n_retransmits + 1;
      (match Sim.tracer_of t.c with
      | Some tr ->
          let now = Sim.time t.c in
          Trace.record tr ~rank:(Sim.rank t.c) ~t0:now ~t1:now
            (Trace.Retransmit { dest; tag; seq })
      | None -> ());
      Sim.send t.c ~dest ~tag env)
    pending

let send t ~dest ~tag payload =
  drain_acks t;
  let sr = counter t.send_seq (dest, tag) in
  let seq = !sr in
  incr sr;
  let n = Array.length payload in
  let env = Array.make (2 + n) 0.0 in
  env.(0) <- float_of_int seq;
  Array.blit payload 0 env 2 n;
  env.(1) <- checksum_env ~seq env ~off:2;
  Hashtbl.replace t.unacked (dest, tag, seq) env;
  Sim.send t.c ~dest ~tag env

let send_ack t ~src ~tag ~seq =
  let env = Array.make 2 0.0 in
  env.(0) <- float_of_int seq;
  env.(1) <- checksum_env ~seq env ~off:2;
  Sim.send t.c ~dest:src ~tag:(ack_tag tag) env

let process_data t ~src ~tag env =
  match decode env with
  | None -> t.n_cksum <- t.n_cksum + 1
  | Some seq ->
      let next = counter t.recv_next (src, tag) in
      if seq < !next || Hashtbl.mem t.recv_buf (src, tag, seq) then begin
        (* already delivered or already buffered: the peer retransmitted
           because our ack was lost — suppress, but ack again *)
        t.n_dup <- t.n_dup + 1;
        send_ack t ~src ~tag ~seq
      end
      else begin
        Hashtbl.replace t.recv_buf (src, tag, seq)
          (Array.sub env 2 (Array.length env - 2));
        send_ack t ~src ~tag ~seq
      end

let take_buffered t ~src ~tag =
  let next = counter t.recv_next (src, tag) in
  match Hashtbl.find_opt t.recv_buf (src, tag, !next) with
  | Some p ->
      Hashtbl.remove t.recv_buf (src, tag, !next);
      incr next;
      Some p
  | None -> None

let recv t ~src ~tag =
  let rec go attempt =
    drain_acks t;
    match take_buffered t ~src ~tag with
    | Some p -> p
    | None ->
        if attempt > max_retries then begin
          (* retries exhausted: one last retransmit, then hand the
             watchdog to the scheduler — a dead peer becomes
             Sim.Timeout with full per-rank diagnostics *)
          retransmit_all t;
          let env = Sim.recv t.c ~src ~tag in
          process_data t ~src ~tag env;
          go attempt
        end
        else begin
          let deadline = Sim.time t.c +. t.timeout in
          match Sim.recv_deadline t.c ~src ~tag ~deadline with
          | Some env ->
              process_data t ~src ~tag env;
              go attempt
          | None ->
              retransmit_all t;
              go (attempt + 1)
        end
  in
  go 0

let flush t =
  (* Bounded: a peer already parked in a collective cannot re-ack until
     it next touches the stream, so after the retries are exhausted the
     remaining envelopes are abandoned — the receiver's dedup keeps
     delivery exactly-once, and a genuinely lost payload surfaces as the
     receiver's own timeout instead. *)
  let rec go attempt =
    drain_acks t;
    if Hashtbl.length t.unacked > 0 then begin
      if attempt > flush_retries then begin
        (* a final volley for receivers that have not reached their recv
           yet, then give up on the acks *)
        retransmit_all t;
        Hashtbl.reset t.unacked
      end
      else begin
        let first =
          Hashtbl.fold
            (fun (d, tg, _) _ acc ->
              match acc with
              | Some best when best <= (d, tg) -> acc
              | _ -> Some (d, tg))
            t.unacked None
        in
        match first with
        | None -> ()
        | Some (dest, tag) -> (
            let before = Hashtbl.length t.unacked in
            let deadline = Sim.time t.c +. t.timeout in
            match
              Sim.recv_deadline t.c ~src:dest ~tag:(ack_tag tag) ~deadline
            with
            | Some env ->
                process_ack t ~dest ~tag env;
                go (if Hashtbl.length t.unacked < before then 0 else attempt)
            | None ->
                retransmit_all t;
                go (attempt + 1))
      end
    end
  in
  go 0
