(** Fault injection, reliable transport and checkpoint/restart: schedule
    determinism, exactly-once in-order delivery under loss / duplication /
    corruption, watchdog timeouts with crash diagnostics, and end-to-end
    recovery of SPMD runs (bit-identical results under every recoverable
    seeded schedule, on both execution engines). *)

open Autocfd_mpsim
module D = Autocfd.Driver

let parts_spec p = Autocfd.Runspec.(default |> with_parts (Some p))
module R = Autocfd.Runspec
module I = Autocfd_interp

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_schedule_deterministic () =
  let spec = Fault.spec ~seed:7 ~loss:0.3 ~duplication:0.2 ~corruption:0.1 () in
  let draw () =
    let p = Fault.make spec in
    Fault.begin_run p;
    List.init 50 (fun i ->
        let v = Fault.on_send p ~src:(i mod 3) ~dest:((i + 1) mod 3) ~words:8 in
        (v.Fault.sv_drop, v.Fault.sv_duplicate, v.Fault.sv_corrupt,
         v.Fault.sv_delay))
  in
  Alcotest.(check bool) "same spec, same verdicts" true (draw () = draw ());
  let other =
    let p = Fault.make (Fault.spec ~seed:8 ~loss:0.3 ~duplication:0.2
                          ~corruption:0.1 ()) in
    Fault.begin_run p;
    List.init 50 (fun i ->
        let v = Fault.on_send p ~src:(i mod 3) ~dest:((i + 1) mod 3) ~words:8 in
        (v.Fault.sv_drop, v.Fault.sv_duplicate, v.Fault.sv_corrupt,
         v.Fault.sv_delay))
  in
  Alcotest.(check bool) "different seed, different verdicts" true
    (draw () <> other)

let test_verdicts_independent_of_interleaving () =
  (* the verdict for the nth message on a link must not depend on what
     other links did in between *)
  let spec = Fault.spec ~seed:11 ~loss:0.5 () in
  let solo =
    let p = Fault.make spec in
    Fault.begin_run p;
    List.init 20 (fun _ -> (Fault.on_send p ~src:0 ~dest:1 ~words:4).Fault.sv_drop)
  in
  let interleaved =
    let p = Fault.make spec in
    Fault.begin_run p;
    List.init 20 (fun _ ->
        ignore (Fault.on_send p ~src:1 ~dest:0 ~words:4);
        ignore (Fault.on_send p ~src:2 ~dest:1 ~words:4);
        (Fault.on_send p ~src:0 ~dest:1 ~words:4).Fault.sv_drop)
  in
  Alcotest.(check bool) "link stream isolated" true (solo = interleaved)

(* ------------------------------------------------------------------ *)
(* Reliable transport over injected faults                             *)
(* ------------------------------------------------------------------ *)

(* rank 0 streams [n] distinct payloads to rank 1 over the reliable
   transport while the given schedule mangles the wire; returns what
   rank 1 delivered plus both endpoints' stats *)
let stream_under spec n =
  let got = ref [] in
  let stats = Array.make 2 None in
  let faults = Fault.make spec in
  let _ =
    Sim.run ~net:Netmodel.fast ~faults ~nranks:2 (fun c ->
        let t = Reliable.create c in
        if Sim.rank c = 0 then
          for i = 1 to n do
            Reliable.send t ~dest:1 ~tag:2 [| float_of_int i; 0.5 |]
          done
        else
          for _ = 1 to n do
            got := (Reliable.recv t ~src:0 ~tag:2).(0) :: !got
          done;
        Reliable.flush t;
        stats.(Sim.rank c) <- Some (Reliable.stats t))
  in
  (List.rev !got, Option.get stats.(0), Option.get stats.(1))

let expect_seq n = List.init n (fun i -> float_of_int (i + 1))

let test_loss_recovered () =
  let got, s0, _ = stream_under (Fault.spec ~seed:3 ~loss:0.4 ()) 30 in
  Alcotest.(check (list (float 0.0))) "in order exactly once"
    (expect_seq 30) got;
  Alcotest.(check bool) "sender retransmitted" true
    (s0.Reliable.rl_retransmits > 0)

let test_corruption_recovered () =
  let got, _, s1 = stream_under (Fault.spec ~seed:5 ~corruption:0.4 ()) 30 in
  Alcotest.(check (list (float 0.0))) "payloads intact" (expect_seq 30) got;
  Alcotest.(check bool) "checksum caught corruption" true
    (s1.Reliable.rl_checksum_failures > 0)

let test_duplication_suppressed () =
  let got, _, s1 = stream_under (Fault.spec ~seed:9 ~duplication:0.6 ()) 30 in
  Alcotest.(check (list (float 0.0))) "exactly once" (expect_seq 30) got;
  Alcotest.(check bool) "duplicates dropped" true
    (s1.Reliable.rl_dup_suppressed > 0)

let test_everything_at_once () =
  let got, s0, s1 =
    stream_under
      (Fault.spec ~seed:13 ~loss:0.25 ~duplication:0.25 ~corruption:0.25
         ~jitter:1e-5 ())
      40
  in
  Alcotest.(check (list (float 0.0))) "survives combined schedule"
    (expect_seq 40) got;
  Alcotest.(check bool) "transport actually worked for it" true
    (s0.Reliable.rl_retransmits > 0 || s1.Reliable.rl_dup_suppressed > 0)

let test_hostile_wire_survived () =
  (* the worst wire we can draw from one seeded schedule: high-rate
     loss, duplication, reordering and corruption all at once.  Delivery
     must stay exactly-once in-order, and every fault class must
     actually have fired so the schedule cannot quietly go easy. *)
  let spec =
    Fault.spec ~seed:21 ~loss:0.3 ~duplication:0.3 ~corruption:0.3
      ~reorder:0.6 ()
  in
  let faults = Fault.make spec in
  let got = ref [] in
  let stats = Array.make 2 None in
  let _ =
    Sim.run ~net:Netmodel.fast ~faults ~nranks:2 (fun c ->
        let t = Reliable.create c in
        if Sim.rank c = 0 then
          for i = 1 to 50 do
            Reliable.send t ~dest:1 ~tag:2 [| float_of_int i; 0.5 |]
          done
        else
          for _ = 1 to 50 do
            got := (Reliable.recv t ~src:0 ~tag:2).(0) :: !got
          done;
        Reliable.flush t;
        stats.(Sim.rank c) <- Some (Reliable.stats t))
  in
  Alcotest.(check (list (float 0.0))) "exactly once, in order"
    (expect_seq 50) (List.rev !got);
  let c = Fault.counters faults in
  Alcotest.(check bool) "drops fired" true (c.Fault.fc_drops > 0);
  Alcotest.(check bool) "duplicates fired" true (c.Fault.fc_duplicates > 0);
  Alcotest.(check bool) "corruptions fired" true (c.Fault.fc_corruptions > 0);
  Alcotest.(check bool) "reorders fired" true (c.Fault.fc_reorders > 0);
  let s0 = Option.get stats.(0) and s1 = Option.get stats.(1) in
  Alcotest.(check bool) "sender retransmitted" true
    (s0.Reliable.rl_retransmits > 0);
  Alcotest.(check bool) "receiver rejected corruption" true
    (s1.Reliable.rl_checksum_failures > 0);
  Alcotest.(check bool) "receiver suppressed duplicates" true
    (s1.Reliable.rl_dup_suppressed > 0)

let test_reorder_property () =
  (* adversarial delivery shuffle: across many seeds a heavy reorder
     rate — alone and mixed with loss and duplication — must never break
     exactly-once in-order delivery.  The schedule is drawn per-link, so
     the shuffle verdicts replay deterministically; we also require that
     the shuffles actually fired (fc_reorders > 0 overall) so the suite
     cannot silently pass against a wire that stayed FIFO. *)
  let total_reorders = ref 0 and total_buffered = ref 0 in
  for seed = 1 to 12 do
    let loss = if seed mod 2 = 0 then 0.15 else 0.0 in
    let duplication = if seed mod 3 = 0 then 0.2 else 0.0 in
    let spec = Fault.spec ~seed ~reorder:0.6 ~loss ~duplication () in
    let faults = Fault.make spec in
    let got = ref [] in
    let stats = Array.make 2 None in
    let _ =
      Sim.run ~net:Netmodel.fast ~faults ~nranks:2 (fun c ->
          let t = Reliable.create c in
          if Sim.rank c = 0 then
            for i = 1 to 30 do
              Reliable.send t ~dest:1 ~tag:2 [| float_of_int i; 0.5 |]
            done
          else
            for _ = 1 to 30 do
              got := (Reliable.recv t ~src:0 ~tag:2).(0) :: !got
            done;
          Reliable.flush t;
          stats.(Sim.rank c) <- Some (Reliable.stats t))
    in
    if List.rev !got <> expect_seq 30 then
      Alcotest.failf "seed %d: delivery not exactly-once in-order" seed;
    let c = Fault.counters faults in
    if c.Fault.fc_reorders < 0 then Alcotest.fail "negative reorder count";
    total_reorders := !total_reorders + c.Fault.fc_reorders;
    let s1 = Option.get stats.(1) in
    (* an overtaken envelope arrives early: the receiver either buffers
       it (out-of-order seq) or, after a retransmit, suppresses it *)
    total_buffered :=
      !total_buffered + s1.Reliable.rl_dup_suppressed
      + s1.Reliable.rl_checksum_failures
  done;
  Alcotest.(check bool) "some schedules actually shuffled the wire" true
    (!total_reorders > 0)

let test_reorder_verdicts_deterministic () =
  (* the seeded shuffle must replay: same spec, same sv_reorder stream *)
  let spec = Fault.spec ~seed:17 ~reorder:0.5 () in
  let draw () =
    let p = Fault.make spec in
    Fault.begin_run p;
    List.init 40 (fun _ ->
        (Fault.on_send p ~src:0 ~dest:1 ~words:8).Fault.sv_reorder)
  in
  let a = draw () in
  Alcotest.(check bool) "replayable" true (a = draw ());
  Alcotest.(check bool) "both outcomes drawn" true
    (List.mem true a && List.mem false a)

let test_degraded_link_slows_elapsed () =
  let elapsed faults =
    let stats =
      Sim.run ~net:Netmodel.ethernet_100 ?faults ~nranks:2 (fun c ->
          if Sim.rank c = 0 then
            Sim.send c ~dest:1 ~tag:0 (Array.make 4000 1.0)
          else ignore (Sim.recv c ~src:0 ~tag:0))
    in
    stats.Sim.elapsed
  in
  let clean = elapsed None in
  let slow =
    elapsed
      (Some (Fault.make (Fault.spec ~seed:1 ~degrade:[ (0, 1, 10.0) ] ())))
  in
  Alcotest.(check bool) "10x degraded wire time shows up" true
    (slow > 5.0 *. clean)

let test_stall_adds_blocked_time () =
  let stats =
    Sim.run ~net:Netmodel.fast
      ~faults:
        (Fault.make
           (Fault.spec ~seed:1
              ~stalls:
                [ { Fault.sl_rank = 1; sl_at = Fault.At_op 1;
                    sl_duration = 5.0 } ]
              ()))
      ~nranks:2
      (fun c ->
        if Sim.rank c = 0 then Sim.send c ~dest:1 ~tag:0 [| 1.0 |]
        else ignore (Sim.recv c ~src:0 ~tag:0);
        Sim.barrier c)
  in
  Alcotest.(check bool) "straggler pushes the finish time" true
    (stats.Sim.elapsed >= 5.0)

(* ------------------------------------------------------------------ *)
(* Watchdog: deadline receives, try_recv, crash diagnostics            *)
(* ------------------------------------------------------------------ *)

let test_recv_deadline_expires () =
  let expired = ref false and t_after = ref 0.0 in
  let _ =
    Sim.run ~net:Netmodel.fast ~nranks:2 (fun c ->
        if Sim.rank c = 1 then begin
          (match Sim.recv_deadline c ~src:0 ~tag:4 ~deadline:2.5 with
          | None -> expired := true
          | Some _ -> ());
          t_after := Sim.time c
        end)
  in
  Alcotest.(check bool) "no sender: deadline expires" true !expired;
  Alcotest.(check bool) "clock advanced to the deadline" true (!t_after >= 2.5)

let test_recv_deadline_delivers () =
  let got = ref [||] in
  let _ =
    Sim.run ~net:Netmodel.fast ~nranks:2 (fun c ->
        if Sim.rank c = 0 then Sim.send c ~dest:1 ~tag:4 [| 6.0 |]
        else
          match Sim.recv_deadline c ~src:0 ~tag:4 ~deadline:1e6 with
          | Some p -> got := p
          | None -> ())
  in
  Alcotest.(check bool) "message beats deadline" true (!got = [| 6.0 |])

let test_try_recv () =
  let before = ref None and after = ref None in
  let _ =
    Sim.run ~net:Netmodel.fast ~nranks:2 (fun c ->
        if Sim.rank c = 0 then Sim.send c ~dest:1 ~tag:8 [| 3.0 |]
        else begin
          before := Sim.try_recv c ~src:0 ~tag:8;
          (* advance past any flight time so the message has arrived *)
          Sim.advance c 1.0;
          after := Sim.try_recv c ~src:0 ~tag:8
        end)
  in
  Alcotest.(check bool) "nothing arrived yet" true (!before = None);
  Alcotest.(check bool) "delivered after the flight" true
    (match !after with Some [| 3.0 |] -> true | _ -> false)

let test_crash_raises_timeout_with_diagnostics () =
  match
    Sim.run ~net:Netmodel.fast
      ~faults:
        (Fault.make
           (Fault.spec ~seed:1
              ~crashes:[ { Fault.cr_rank = 1; cr_at = Fault.At_op 1 } ]
              ()))
      ~nranks:2
      (fun c -> Sim.barrier c)
  with
  | exception Sim.Timeout msg ->
      Alcotest.(check bool) "names the crashed rank" true
        (contains msg "rank 1: crashed");
      Alcotest.(check bool) "names the survivor's collective" true
        (contains msg "rank 0: blocked in barrier")
  | _ -> Alcotest.fail "expected Sim.Timeout"

let test_fired_fault_turns_deadlock_into_timeout () =
  (* same stuck shape as a deadlock, but a fault has fired: must be
     reported as Timeout, not program error *)
  let run faults =
    Sim.run ~net:Netmodel.fast ?faults ~nranks:2 (fun c ->
        if Sim.rank c = 0 then Sim.send c ~dest:1 ~tag:0 [| 1.0 |]
        else ignore (Sim.recv c ~src:0 ~tag:0))
  in
  (match run (Some (Fault.make (Fault.spec ~seed:2 ~loss:1.0 ()))) with
  | exception Sim.Timeout _ -> ()
  | exception Sim.Deadlock _ -> Alcotest.fail "lossy stall must be Timeout"
  | _ -> Alcotest.fail "expected Sim.Timeout");
  match run None with
  | exception Sim.Deadlock _ -> Alcotest.fail "fault-free run must not stall"
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* End-to-end SPMD recovery                                            *)
(* ------------------------------------------------------------------ *)

let jacobi_src =
  {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 13, n = 9)
      real u(m, n), w(m, n)
      real resid
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
        resid = 0.0
        do i = 2, m - 1
          do j = 2, n - 1
            resid = resid + abs(w(i, j) - u(i, j))
            u(i, j) = w(i, j)
          end do
        end do
        write(*,*) resid
      end do
      write(*,*) u(m/2, n/2)
      end
|}

let same_state (a : I.Spmd.result) (b : I.Spmd.result) =
  List.length a.I.Spmd.gathered = List.length b.I.Spmd.gathered
  && List.for_all2
       (fun (na, aa) (nb, ab) ->
         na = nb && aa.I.Value.data = ab.I.Value.data)
       a.I.Spmd.gathered b.I.Spmd.gathered
  && a.I.Spmd.scalars = b.I.Spmd.scalars
  && a.I.Spmd.output = b.I.Spmd.output

let fused spec plan = D.run ~spec plan
let tree spec plan = Oracle.run_tree ~spec plan

let recovery_case ~run spec =
  let t = D.load jacobi_src in
  let plan = D.plan ~spec:(parts_spec [| 2; 2 |]) t in
  let clean = run R.default plan in
  let faults = Fault.make spec in
  let faulty =
    run
      R.(
        default
        |> with_faults (Some faults)
        |> with_recovery (Some I.Spmd.default_recovery))
      plan
  in
  (clean, faulty, faults)

let crash_spec =
  Fault.spec ~seed:21
    ~crashes:[ { Fault.cr_rank = 1; cr_at = Fault.At_op 9 } ]
    ()

let test_crash_recovery_fused () =
  let clean, faulty, _ = recovery_case ~run:fused crash_spec in
  Alcotest.(check bool) "restarted" true
    (faulty.I.Spmd.resilience.I.Spmd.rs_restarts = 1);
  Alcotest.(check bool) "checkpointed" true
    (faulty.I.Spmd.resilience.I.Spmd.rs_checkpoints > 0);
  Alcotest.(check bool) "bit-identical after crash+restart" true
    (same_state clean faulty)

let test_crash_recovery_tree () =
  let clean, faulty, _ = recovery_case ~run:tree crash_spec in
  Alcotest.(check bool) "bit-identical on the tree engine too" true
    (same_state clean faulty && faulty.I.Spmd.resilience.I.Spmd.rs_restarts = 1)

let test_crash_without_recovery_times_out () =
  let t = D.load jacobi_src in
  let plan = D.plan ~spec:(parts_spec [| 2; 2 |]) t in
  match
    D.run
      ~spec:(R.with_faults (Some (Fault.make crash_spec)) R.default)
      plan
  with
  | exception Sim.Timeout _ -> ()
  | _ -> Alcotest.fail "expected Sim.Timeout without recovery"

let test_runtime_error_mid_body_propagates () =
  (* a dynamic error (integer division by zero at i = 7, which only rank
     1 owns under a 2x1 partition of m = 12) striking mid-body, after a
     halo exchange has already run, must surface as Rank_failure naming
     the failing rank and wrapping the engine's Runtime_error — on both
     engines *)
  let src =
    {|
c$acfd grid(m, n)
c$acfd status(u, w)
      program t
      parameter (m = 12, n = 8)
      real u(m, n), w(m, n)
      integer i, j
      do i = 1, m
        do j = 1, n
          u(i, j) = float(i + j)
        end do
      end do
      do i = 2, m - 1
        do j = 1, n
          w(i, j) = 0.5 * (u(i-1, j) + u(i+1, j))
        end do
      end do
      do i = 2, m - 1
        do j = 1, n
          u(i, j) = w(i, j) + float(n / mod(i, 7))
        end do
      end do
      write(*,*) u(1, 1)
      end
|}
  in
  let t = D.load src in
  let plan = D.plan ~spec:(parts_spec [| 2; 1 |]) t in
  List.iter
    (fun run ->
      match run R.default plan with
      | exception Sim.Rank_failure (r, I.Machine.Runtime_error _) ->
          Alcotest.(check int) "failure on the owning rank" 1 r
      | exception e ->
          Alcotest.failf "expected Rank_failure(Runtime_error), got %s"
            (Printexc.to_string e)
      | _ -> Alcotest.fail "expected a failure")
    [ tree; fused ]

(* ------------------------------------------------------------------ *)
(* Chaos property suite: randomized recoverable schedules              *)
(* ------------------------------------------------------------------ *)

let chaos_schedule i =
  (* 20+ distinct recoverable schedules derived from the index: rates
     cycle through loss/dup/corrupt mixes, every 4th adds jitter, every
     5th a straggler, every 6th a crash *)
  let loss = 0.08 *. float_of_int (i mod 3) in
  let dup = 0.06 *. float_of_int ((i / 3) mod 3) in
  let corrupt = 0.05 *. float_of_int ((i / 9) mod 3) in
  let jitter = if i mod 4 = 0 then 2e-6 *. float_of_int (1 + i) else 0.0 in
  let stalls =
    if i mod 5 = 0 then
      [ { Fault.sl_rank = i mod 4; sl_at = Fault.At_op (3 + i);
          sl_duration = 1e-3 } ]
    else []
  in
  let crashes =
    if i mod 6 = 0 then
      [ { Fault.cr_rank = 1 + (i mod 3); cr_at = Fault.At_op (5 + i) } ]
    else []
  in
  Fault.spec ~seed:(1000 + i) ~loss ~duplication:dup ~corruption:corrupt
    ~jitter ~stalls ~crashes ()

let test_chaos_property () =
  let t = D.load jacobi_src in
  let plan = D.plan ~spec:(parts_spec [| 2; 2 |]) t in
  let clean = D.run plan in
  for i = 1 to 24 do
    let spec = chaos_schedule i in
    let run () =
      D.run
        ~spec:
          R.(
            default
            |> with_faults (Some (Fault.make spec))
            |> with_recovery (Some I.Spmd.default_recovery))
        plan
    in
    let faulty = run () in
    if not (same_state clean faulty) then
      Alcotest.failf "schedule %d diverged from the fault-free run" i;
    (* determinism: the same seeded schedule replays to the same stats *)
    let again = run () in
    if
      again.I.Spmd.stats <> faulty.I.Spmd.stats
      || again.I.Spmd.resilience <> faulty.I.Spmd.resilience
    then Alcotest.failf "schedule %d is not deterministic" i
  done

let suite =
  [
    ("schedule deterministic", `Quick, test_schedule_deterministic);
    ( "verdicts independent of interleaving", `Quick,
      test_verdicts_independent_of_interleaving );
    ("loss recovered", `Quick, test_loss_recovered);
    ("corruption recovered", `Quick, test_corruption_recovered);
    ("duplication suppressed", `Quick, test_duplication_suppressed);
    ("combined schedule survives", `Quick, test_everything_at_once);
    ("hostile wire survived", `Quick, test_hostile_wire_survived);
    ("reorder property (12 seeds)", `Quick, test_reorder_property);
    ( "reorder verdicts deterministic", `Quick,
      test_reorder_verdicts_deterministic );
    ("degraded link slows elapsed", `Quick, test_degraded_link_slows_elapsed);
    ("stall adds blocked time", `Quick, test_stall_adds_blocked_time);
    ("recv_deadline expires", `Quick, test_recv_deadline_expires);
    ("recv_deadline delivers", `Quick, test_recv_deadline_delivers);
    ("try_recv", `Quick, test_try_recv);
    ( "crash raises Timeout with diagnostics", `Quick,
      test_crash_raises_timeout_with_diagnostics );
    ( "fired fault reclassifies stall as Timeout", `Quick,
      test_fired_fault_turns_deadlock_into_timeout );
    ("crash recovery (fused)", `Quick, test_crash_recovery_fused);
    ("crash recovery (tree)", `Quick, test_crash_recovery_tree);
    ( "crash without recovery times out", `Quick,
      test_crash_without_recovery_times_out );
    ( "runtime error mid-body propagates", `Quick,
      test_runtime_error_mid_body_propagates );
    ("chaos property (24 schedules)", `Slow, test_chaos_property);
  ]
