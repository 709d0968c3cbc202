(** Tests for the simulated message-passing cluster: point-to-point
    semantics, collectives, virtual time, determinism and deadlock
    detection; and for {!Shm}, the Domains engine's runtime, run
    directly on real domains. *)

open Autocfd_mpsim

let run ?(net = Netmodel.fast) ~nranks body = Sim.run ~net ~nranks body

let test_send_recv () =
  let received = ref [] in
  let _ =
    run ~nranks:2 (fun c ->
        if Sim.rank c = 0 then Sim.send c ~dest:1 ~tag:5 [| 1.0; 2.0; 3.0 |]
        else received := Array.to_list (Sim.recv c ~src:0 ~tag:5))
  in
  Alcotest.(check (list (float 0.0))) "payload" [ 1.0; 2.0; 3.0 ] !received

let test_fifo_order () =
  let got = ref [] in
  let _ =
    run ~nranks:2 (fun c ->
        if Sim.rank c = 0 then
          for i = 1 to 5 do
            Sim.send c ~dest:1 ~tag:0 [| float_of_int i |]
          done
        else
          for _ = 1 to 5 do
            got := (Sim.recv c ~src:0 ~tag:0).(0) :: !got
          done)
  in
  Alcotest.(check (list (float 0.0))) "fifo" [ 1.; 2.; 3.; 4.; 5. ]
    (List.rev !got)

let test_tags_independent () =
  let a = ref 0.0 and b = ref 0.0 in
  let _ =
    run ~nranks:2 (fun c ->
        if Sim.rank c = 0 then begin
          Sim.send c ~dest:1 ~tag:1 [| 10.0 |];
          Sim.send c ~dest:1 ~tag:2 [| 20.0 |]
        end
        else begin
          (* receive in the opposite tag order *)
          b := (Sim.recv c ~src:0 ~tag:2).(0);
          a := (Sim.recv c ~src:0 ~tag:1).(0)
        end)
  in
  Alcotest.(check (float 0.0)) "tag 1" 10.0 !a;
  Alcotest.(check (float 0.0)) "tag 2" 20.0 !b

let test_send_copies_payload () =
  let got = ref 0.0 in
  let _ =
    run ~nranks:2 (fun c ->
        if Sim.rank c = 0 then begin
          let buf = [| 1.0 |] in
          Sim.send c ~dest:1 ~tag:0 buf;
          buf.(0) <- 99.0 (* must not affect the message *)
        end
        else got := (Sim.recv c ~src:0 ~tag:0).(0))
  in
  Alcotest.(check (float 0.0)) "copied" 1.0 !got

let test_allreduce_ops () =
  let results = Array.make 3 0.0 in
  let _ =
    run ~nranks:3 (fun c ->
        let v = float_of_int (Sim.rank c + 1) in
        results.(Sim.rank c) <- Sim.allreduce c `Sum v)
  in
  Array.iter (fun r -> Alcotest.(check (float 1e-9)) "sum" 6.0 r) results;
  let maxes = Array.make 3 0.0 in
  let _ =
    run ~nranks:3 (fun c ->
        maxes.(Sim.rank c) <- Sim.allreduce c `Max (float_of_int (Sim.rank c)))
  in
  Array.iter (fun r -> Alcotest.(check (float 0.0)) "max" 2.0 r) maxes;
  let mins = Array.make 3 0.0 in
  let _ =
    run ~nranks:3 (fun c ->
        mins.(Sim.rank c) <- Sim.allreduce c `Min (float_of_int (Sim.rank c)))
  in
  Array.iter (fun r -> Alcotest.(check (float 0.0)) "min" 0.0 r) mins

let test_bcast () =
  let got = Array.make 4 [||] in
  let _ =
    run ~nranks:4 (fun c ->
        let data = if Sim.rank c = 0 then [| 7.0; 8.0 |] else [||] in
        got.(Sim.rank c) <- Sim.bcast c ~root:0 data)
  in
  Array.iter
    (fun d -> Alcotest.(check bool) "bcast data" true (d = [| 7.0; 8.0 |]))
    got

let test_barrier_synchronizes_time () =
  let stats =
    run ~net:Netmodel.fast ~nranks:3 (fun c ->
        Sim.advance c (float_of_int (Sim.rank c + 1));
        Sim.barrier c)
  in
  (* all ranks leave the barrier at the same time >= max advance *)
  Array.iter
    (fun t -> Alcotest.(check bool) "time >= 3" true (t >= 3.0))
    stats.Sim.rank_times;
  let t0 = stats.Sim.rank_times.(0) in
  Array.iter
    (fun t -> Alcotest.(check (float 1e-12)) "same exit time" t0 t)
    stats.Sim.rank_times

let test_message_advances_receiver_clock () =
  let net = Netmodel.ethernet_100 in
  let stats =
    run ~net ~nranks:2 (fun c ->
        if Sim.rank c = 0 then begin
          Sim.advance c 1.0;
          Sim.send c ~dest:1 ~tag:0 (Array.make 1000 0.0)
        end
        else ignore (Sim.recv c ~src:0 ~tag:0))
  in
  (* the receiver cannot finish before the message arrival *)
  Alcotest.(check bool) "receiver waited" true
    (stats.Sim.rank_times.(1) > 1.0)

let test_stats_counts () =
  let stats =
    run ~nranks:2 (fun c ->
        if Sim.rank c = 0 then begin
          Sim.send c ~dest:1 ~tag:0 (Array.make 10 0.0);
          Sim.send c ~dest:1 ~tag:0 (Array.make 5 0.0)
        end
        else begin
          ignore (Sim.recv c ~src:0 ~tag:0);
          ignore (Sim.recv c ~src:0 ~tag:0)
        end;
        ignore (Sim.allreduce c `Sum 1.0))
  in
  Alcotest.(check int) "messages" 2 stats.Sim.messages;
  Alcotest.(check int) "bytes" (8 * 15) stats.Sim.bytes;
  Alcotest.(check int) "collectives" 1 stats.Sim.collectives

let test_deadlock_detection () =
  Alcotest.(check bool) "recv with no sender deadlocks" true
    (match
       run ~nranks:2 (fun c ->
           if Sim.rank c = 1 then ignore (Sim.recv c ~src:0 ~tag:9))
     with
    | exception Sim.Deadlock _ -> true
    | _ -> false)

let test_collective_mismatch_detected () =
  Alcotest.(check bool) "barrier vs done" true
    (match
       run ~nranks:2 (fun c -> if Sim.rank c = 0 then Sim.barrier c)
     with
    | exception Sim.Deadlock _ -> true
    | _ -> false)

let test_rank_failure_propagates () =
  Alcotest.(check bool) "exception wrapped" true
    (match
       run ~nranks:2 (fun c -> if Sim.rank c = 1 then failwith "boom")
     with
    | exception Sim.Rank_failure (1, Failure _) -> true
    | _ -> false)

let test_determinism () =
  let trace () =
    let events = ref [] in
    let _ =
      run ~nranks:4 (fun c ->
          let r = Sim.rank c in
          let right = (r + 1) mod 4 and left = (r + 3) mod 4 in
          Sim.send c ~dest:right ~tag:0 [| float_of_int r |];
          let v = (Sim.recv c ~src:left ~tag:0).(0) in
          events := (r, v) :: !events;
          ignore (Sim.allreduce c `Sum v))
    in
    !events
  in
  Alcotest.(check bool) "identical traces" true (trace () = trace ())

let test_pipeline_pattern () =
  (* ranks forward a token in order: exercises blocked chains *)
  let order = ref [] in
  let _ =
    run ~nranks:5 (fun c ->
        let r = Sim.rank c in
        let v =
          if r = 0 then 1.0
          else (Sim.recv c ~src:(r - 1) ~tag:3).(0) +. 1.0
        in
        order := (r, v) :: !order;
        if r < 4 then Sim.send c ~dest:(r + 1) ~tag:3 [| v |])
  in
  Alcotest.(check (list (pair int (float 0.0))))
    "token increments through the pipeline"
    [ (0, 1.); (1, 2.); (2, 3.); (3, 4.); (4, 5.) ]
    (List.rev !order)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_per_rank_counts_conserved () =
  (* ring exchange plus two extra point-to-point messages: every send must
     be matched by exactly one recv, per rank and in total *)
  let stats =
    run ~nranks:4 (fun c ->
        let r = Sim.rank c in
        let right = (r + 1) mod 4 and left = (r + 3) mod 4 in
        Sim.send c ~dest:right ~tag:0 [| float_of_int r |];
        ignore (Sim.recv c ~src:left ~tag:0);
        if r = 0 then begin
          Sim.send c ~dest:2 ~tag:1 [| 1.0 |];
          Sim.send c ~dest:2 ~tag:1 [| 2.0 |]
        end;
        if r = 2 then begin
          ignore (Sim.recv c ~src:0 ~tag:1);
          ignore (Sim.recv c ~src:0 ~tag:1)
        end)
  in
  let total a = Array.fold_left ( + ) 0 a in
  Alcotest.(check int) "sends = messages" stats.Sim.messages
    (total stats.Sim.rank_sends);
  Alcotest.(check int) "recvs = messages" stats.Sim.messages
    (total stats.Sim.rank_recvs);
  Alcotest.(check int) "rank 0 sends" 3 stats.Sim.rank_sends.(0);
  Alcotest.(check int) "rank 2 recvs" 3 stats.Sim.rank_recvs.(2);
  Alcotest.(check int) "rank 1 sends" 1 stats.Sim.rank_sends.(1)

let test_blocked_time_attributed () =
  (* the receiver sits idle for the whole message flight: latency 1s *)
  let net =
    { Netmodel.latency = 1.0; bandwidth = infinity; send_overhead = 0.;
      recv_overhead = 0. }
  in
  let stats =
    run ~net ~nranks:2 (fun c ->
        if Sim.rank c = 0 then Sim.send c ~dest:1 ~tag:0 [| 1.0 |]
        else ignore (Sim.recv c ~src:0 ~tag:0))
  in
  Alcotest.(check (float 1e-9)) "receiver blocked for the latency" 1.0
    stats.Sim.rank_blocked.(1);
  Alcotest.(check (float 1e-9)) "sender never blocked" 0.0
    stats.Sim.rank_blocked.(0)

let test_deadlock_names_stuck_ranks () =
  (* ranks 1 and 2 block on receives nobody sends; the diagnostic must
     name each stuck rank with the (src, tag) it is waiting on *)
  match
    run ~nranks:3 (fun c ->
        Sim.advance c 0.5;
        if Sim.rank c = 1 then ignore (Sim.recv c ~src:0 ~tag:7);
        if Sim.rank c = 2 then ignore (Sim.recv c ~src:0 ~tag:9))
  with
  | exception Sim.Deadlock msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("message mentions " ^ needle) true
            (contains msg needle))
        [ "rank 0: done"; "rank 1: blocked on recv(src=0, tag=7)";
          "rank 2: blocked on recv(src=0, tag=9)"; "t=0.5" ]
  | _ -> Alcotest.fail "expected Deadlock"

let test_deadlock_names_collectives () =
  (* rank 0 parks in a barrier while rank 1 parks in an allreduce: the
     diagnostic must name the collective each rank is stuck in, including
     the reduction operation *)
  match
    run ~nranks:2 (fun c ->
        if Sim.rank c = 0 then Sim.barrier c
        else ignore (Sim.allreduce c `Sum 1.0))
  with
  | exception Sim.Deadlock msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("message mentions " ^ needle) true
            (contains msg needle))
        [ "rank 0: blocked in barrier"; "rank 1: blocked in allreduce(sum)" ]
  | _ -> Alcotest.fail "expected Deadlock"

let test_mismatched_allreduce_named () =
  (* every rank is in an allreduce but the operations disagree: this is
     diagnosed as a mismatch, with both operations visible *)
  match
    run ~nranks:2 (fun c ->
        if Sim.rank c = 0 then ignore (Sim.allreduce c `Sum 1.0)
        else ignore (Sim.allreduce c `Max 1.0))
  with
  | exception Sim.Deadlock msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("message mentions " ^ needle) true
            (contains msg needle))
        [ "mismatched operations"; "allreduce(sum)"; "allreduce(max)" ]
  | _ -> Alcotest.fail "expected Deadlock"

let test_mismatched_bcast_roots_named () =
  match
    run ~nranks:2 (fun c ->
        ignore (Sim.bcast c ~root:(Sim.rank c) [| 1.0 |]))
  with
  | exception Sim.Deadlock msg ->
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("message mentions " ^ needle) true
            (contains msg needle))
        [ "mismatched roots"; "bcast(root=0)"; "bcast(root=1)" ]
  | _ -> Alcotest.fail "expected Deadlock"

let test_deadline_beside_blocking_recv () =
  (* nothing is sent: rank 1's finite deadline fires with None, then rank
     0's blocking receive is reported without any deadline *)
  let timed_out = ref false in
  match
    run ~nranks:2 (fun c ->
        if Sim.rank c = 0 then ignore (Sim.recv c ~src:1 ~tag:4)
        else
          timed_out :=
            Sim.recv_deadline c ~src:0 ~tag:5 ~deadline:2.0 = None)
  with
  | exception Sim.Deadlock msg ->
      Alcotest.(check bool) "deadline fired with None" true !timed_out;
      Alcotest.(check bool) "blocking recv named" true
        (contains msg "rank 0: blocked on recv(src=1, tag=4) at t=0;");
      Alcotest.(check bool) "no deadline shown" false
        (contains msg "deadline")
  | _ -> Alcotest.fail "expected Deadlock"

(* ------------------------------------------------------------------ *)
(* Shm: the Domains engine's runtime, on real domains                   *)
(* ------------------------------------------------------------------ *)

(* more ranks than cores: every barrier wait sleeps at once (on a host
   with more than 7 cores the 8 ranks poll instead) *)
let oversubscribed = min 8 (Domain.recommended_domain_count () + 1)

(* [f ()] on a thread, failing the test when it has not returned within
   [secs], so a lost wake-up fails instead of hanging the suite *)
let within secs f =
  let result = Atomic.make None in
  let (_ : Thread.t) =
    Thread.create
      (fun () -> Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
      ()
  in
  let deadline = Unix.gettimeofday () +. secs in
  let rec wait () =
    match Atomic.get result with
    | Some (Ok v) -> v
    | Some (Error e) -> raise e
    | None ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "no result within %.0f s" secs;
        Thread.delay 0.001;
        wait ()
  in
  wait ()

(* generation [g] writes row [g mod 2]: a rank rewrites a row only after
   passing the next barrier, which its peers reach after their reads *)
let shm_barrier_generations nranks () =
  let gens = 1000 in
  let rows = Array.make_matrix 2 nranks (-1) in
  let stale = Atomic.make 0 in
  let stats =
    within 60.0 (fun () ->
        Shm.run ~nranks (fun c ->
            let r = Shm.rank c in
            for g = 0 to gens - 1 do
              let row = rows.(g land 1) in
              row.(r) <- g;
              Shm.barrier c;
              if Array.exists (fun v -> v <> g) row then Atomic.incr stale
            done))
  in
  Alcotest.(check int) "every rank sees every peer's write" 0
    (Atomic.get stale);
  Array.iter
    (fun (rs : Shm.rank_stats) ->
      Alcotest.(check int) "barrier calls" gens rs.Shm.rs_barrier_calls)
    stats.Shm.ranks

(* a rank that raises, at once or after its peers are asleep, wakes
   every peer waiting in a barrier or a receive *)
let shm_rank_failure nranks () =
  let failing = nranks - 1 in
  List.iter
    (fun (what, wait) ->
      List.iter
        (fun delay ->
          match
            within 10.0 (fun () ->
                Shm.run ~nranks (fun c ->
                    if Shm.rank c = failing then begin
                      Unix.sleepf delay;
                      failwith "boom"
                    end
                    else wait c))
          with
          | exception Shm.Rank_failure (r, Failure msg) ->
              Alcotest.(check int) (what ^ ": failing rank") failing r;
              Alcotest.(check string) (what ^ ": original exception") "boom"
                msg
          | _ -> Alcotest.failf "%s: expected Rank_failure" what)
        [ 0.0; 0.02 ])
    [
      ("barrier", Shm.barrier);
      ("recv", fun c -> ignore (Shm.recv c ~src:failing ~tag:1));
    ]

(* rank order gives (1e16 + 1) - 1e16 + 1 = 1, the reverse order 0 *)
let test_shm_allreduce_rank_order () =
  let vals = [| 1e16; 1.0; -1e16; 1.0 |] in
  let nranks = Array.length vals in
  let bits = Int64.bits_of_float in
  let fold f = Array.fold_left f vals.(0) (Array.sub vals 1 (nranks - 1)) in
  let reversed =
    Array.fold_right (fun v acc -> acc +. v) (Array.sub vals 0 (nranks - 1))
      vals.(nranks - 1)
  in
  Alcotest.(check bool) "the sum depends on the order" true
    (bits (fold ( +. )) <> bits reversed);
  List.iter
    (fun (name, op, f) ->
      let shm = Array.make nranks nan and sim = Array.make nranks nan in
      ignore
        (within 10.0 (fun () ->
             Shm.run ~nranks (fun c ->
                 shm.(Shm.rank c) <- Shm.allreduce c op vals.(Shm.rank c))));
      ignore
        (run ~nranks (fun c ->
             sim.(Sim.rank c) <- Sim.allreduce c op vals.(Sim.rank c)));
      Array.iteri
        (fun r v ->
          Alcotest.(check int64) (Printf.sprintf "%s rank %d" name r)
            (bits (fold f)) (bits v);
          Alcotest.(check int64) (Printf.sprintf "%s rank %d = Sim" name r)
            (bits sim.(r)) (bits v))
        shm)
    [ ("sum", `Sum, ( +. )); ("max", `Max, Float.max); ("min", `Min, Float.min) ]

let test_shm_bcast () =
  let nranks = 3 in
  let got = Array.make nranks [||] in
  ignore
    (within 10.0 (fun () ->
         Shm.run ~nranks (fun c ->
             let r = Shm.rank c in
             let mine = if r = 1 then [| 1.0; 2.0; 3.0 |] else [| 9.0 |] in
             let out = Shm.bcast c ~root:1 mine in
             (* each rank holds its own copy *)
             out.(0) <- out.(0) +. float_of_int (10 * r);
             Shm.barrier c;
             got.(r) <- out)));
  Array.iteri
    (fun r out ->
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "rank %d" r)
        [| 1.0 +. float_of_int (10 * r); 2.0; 3.0 |]
        out)
    got

(* per (src, tag) the mailboxes are FIFO, whatever the receive order
   across keys *)
let test_shm_fifo_per_key () =
  let got = ref [] in
  ignore
    (within 10.0 (fun () ->
         Shm.run ~nranks:3 (fun c ->
             match Shm.rank c with
             | 1 ->
                 let take src tag =
                   List.init 5 (fun _ -> (Shm.recv c ~src ~tag).(0))
                 in
                 let b = take 0 1 in
                 let a = take 0 0 in
                 let d = take 2 0 in
                 got := [ a; b; d ]
             | r ->
                 let base = float_of_int (100 * r) in
                 for i = 1 to 5 do
                   Shm.send c ~dest:1 ~tag:0 [| base +. float_of_int i |];
                   if r = 0 then
                     Shm.send c ~dest:1 ~tag:1 [| float_of_int (10 * i) |]
                 done)));
  Alcotest.(check (list (list (float 0.0))))
    "each key in send order"
    [
      [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
      [ 10.0; 20.0; 30.0; 40.0; 50.0 ];
      [ 201.0; 202.0; 203.0; 204.0; 205.0 ];
    ]
    !got

let suite =
  [
    ("send/recv", `Quick, test_send_recv);
    ("fifo order", `Quick, test_fifo_order);
    ("tags independent", `Quick, test_tags_independent);
    ("send copies payload", `Quick, test_send_copies_payload);
    ("allreduce ops", `Quick, test_allreduce_ops);
    ("bcast", `Quick, test_bcast);
    ("barrier time", `Quick, test_barrier_synchronizes_time);
    ("message arrival time", `Quick, test_message_advances_receiver_clock);
    ("stats counts", `Quick, test_stats_counts);
    ("deadlock detection", `Quick, test_deadlock_detection);
    ("collective mismatch", `Quick, test_collective_mismatch_detected);
    ("rank failure", `Quick, test_rank_failure_propagates);
    ("determinism", `Quick, test_determinism);
    ("pipeline pattern", `Quick, test_pipeline_pattern);
    ("per-rank counts conserved", `Quick, test_per_rank_counts_conserved);
    ("blocked time attributed", `Quick, test_blocked_time_attributed);
    ("deadlock names stuck ranks", `Quick, test_deadlock_names_stuck_ranks);
    ("deadlock names collectives", `Quick, test_deadlock_names_collectives);
    ("mismatched allreduce named", `Quick, test_mismatched_allreduce_named);
    ( "mismatched bcast roots named", `Quick,
      test_mismatched_bcast_roots_named );
    ( "deadline beside blocking recv", `Quick,
      test_deadline_beside_blocking_recv );
    ("shm barrier generations, 2 ranks", `Quick, shm_barrier_generations 2);
    ( "shm barrier generations, oversubscribed",
      `Quick,
      shm_barrier_generations oversubscribed );
    ("shm rank failure, 2 ranks", `Quick, shm_rank_failure 2);
    ("shm rank failure, oversubscribed", `Quick, shm_rank_failure oversubscribed);
    ("shm allreduce in rank order", `Quick, test_shm_allreduce_rank_order);
    ("shm bcast", `Quick, test_shm_bcast);
    ("shm fifo per (src, tag)", `Quick, test_shm_fifo_per_key);
  ]
