(** The distributed sweep fabric: the frame codec (and a property test
    of its reader against mangled input), connection errors, the
    master/worker wire protocol, and the robustness ladder — end-to-end
    distribution, graceful degradation without workers, quarantine of
    poisoned jobs, requeue on worker death or a corrupt frame, lease
    expiry for silent workers, and heartbeats keeping slow jobs leased. *)

module Sched = Autocfd_sched
module Fabric = Sched.Fabric
module Frame = Sched.Frame
module J = Autocfd_obs.Json

(* ------------------------------------------------------------------ *)
(* frame codec                                                        *)
(* ------------------------------------------------------------------ *)

let encode_all payloads =
  String.concat ""
    (List.map (fun p -> Bytes.to_string (Frame.encode p)) payloads)

(* feed [stream] to a fresh reader in chunks of [sizes] bytes (cycled),
   decoding after each chunk; the payloads decoded and the final verdict
   ([`Need_more] once the stream is used up, or [`Corrupt]) *)
let decode_chunked stream sizes =
  let rec drain rd acc =
    match Frame.next rd with
    | Frame.Payload (p, rd) -> drain rd (p :: acc)
    | Frame.Need_more -> `More (rd, acc)
    | Frame.Corrupt -> `Corrupt acc
  in
  let rec go rd acc off = function
    | [] -> go rd acc off sizes
    | k :: ks -> (
        match drain rd acc with
        | `Corrupt acc -> (List.rev acc, `Corrupt)
        | `More (_, acc) when off >= String.length stream ->
            (List.rev acc, `Need_more)
        | `More (rd, acc) ->
            let k = min k (String.length stream - off) in
            go (Frame.feed rd (String.sub stream off k)) acc (off + k) ks)
  in
  go Frame.empty [] 0 sizes

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 1000 'q'; "{\"a\":[1,2,3]}" ] in
  let got, verdict = decode_chunked (encode_all payloads) [ 1 lsl 20 ] in
  Alcotest.(check (list string)) "payloads" payloads got;
  Alcotest.(check bool) "drained" true (verdict = `Need_more)

let test_frame_checksum_rejects () =
  let b = Frame.encode "payload-to-mangle" in
  (* flip one payload byte: the length still frames it, the checksum
     must not pass it *)
  Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 0x40));
  let got, verdict =
    decode_chunked (Bytes.to_string b ^ encode_all [ "clean" ]) [ 7 ]
  in
  Alcotest.(check (list string)) "nothing delivered" [] got;
  Alcotest.(check bool) "corruption verdict" true (verdict = `Corrupt);
  (* a length above the bound is corrupt at once, rather than a wait
     for gigabytes that will never come *)
  let huge = Bytes.make 12 '\000' in
  Bytes.set_int32_be huge 0 0x7fffffffl;
  Alcotest.(check bool) "oversized length" true
    (snd (decode_chunked (Bytes.to_string huge) [ 12 ]) = `Corrupt)

(* any payloads, in any chunking, decode exactly; one flipped byte or
   leading garbage yields a prefix of them and then corrupt or
   need-more, never a payload that was not sent and never an exception *)
let prop_frame_reader =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 6) (string_size ~gen:char (int_range 0 64)))
        (list_size (int_range 1 4) (int_range 1 40))
        (oneof
           [
             return `Clean;
             map2 (fun i m -> `Flip (i, m)) nat (int_range 1 255);
             map
               (fun g -> `Prepend g)
               (string_size ~gen:char (int_range 1 24));
           ]))
  in
  let print (payloads, sizes, mutation) =
    Printf.sprintf "payloads %s, chunks %s, %s"
      QCheck.Print.(list string payloads)
      QCheck.Print.(list int sizes)
      (match mutation with
      | `Clean -> "clean"
      | `Flip (i, m) -> Printf.sprintf "flip byte %d by %d" i m
      | `Prepend g -> Printf.sprintf "prepend %S" g)
  in
  let rec is_prefix got sent =
    match (got, sent) with
    | [], _ -> true
    | g :: gs, s :: ss -> g = s && is_prefix gs ss
    | _ :: _, [] -> false
  in
  QCheck.Test.make ~count:1000
    ~name:"frame reader never yields what was not sent"
    (QCheck.make ~print gen) (fun (payloads, sizes, mutation) ->
      let stream = encode_all payloads in
      match mutation with
      | `Flip (i, m) when stream <> "" ->
          let b = Bytes.of_string stream in
          let i = i mod Bytes.length b in
          Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor m);
          is_prefix (fst (decode_chunked (Bytes.to_string b) sizes)) payloads
      | `Prepend g ->
          is_prefix (fst (decode_chunked (g ^ stream) sizes)) payloads
      | `Clean | `Flip _ ->
          decode_chunked stream sizes = (payloads, `Need_more))

let test_frame_conn_errors_close () =
  (* read(2) and write(2) on a TCP socket that never connected fail with
     ENOTCONN/EPIPE: like any socket error, that ends the connection *)
  let c = Frame.conn (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0) in
  (match Frame.pump c with
  | exception Frame.Closed -> ()
  | _ -> Alcotest.fail "pump on an unconnected socket must raise Closed");
  (match Frame.send c "x" with
  | exception Frame.Closed -> ()
  | () -> Alcotest.fail "send on an unconnected socket must raise Closed");
  Frame.close c;
  (* write(2) on an unconnected Unix-domain socket fails with ENOTCONN *)
  let c = Frame.conn (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  (match Frame.send c "x" with
  | exception Frame.Closed -> ()
  | () -> Alcotest.fail "send on an unconnected socket must raise Closed");
  Frame.close c;
  (* a peer killed mid-write leaves a truncated frame: that is EOF, not
     corruption *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = Frame.encode "cut short" in
  ignore (Unix.write a frame 0 (Bytes.length frame - 3));
  Unix.close a;
  let c = Frame.conn b in
  let rec drain got =
    match Frame.pump c with
    | payloads -> drain (got @ payloads)
    | exception Frame.Closed -> got
  in
  Alcotest.(check (list string)) "nothing delivered" [] (drain []);
  Alcotest.(check int) "not counted as corrupt" 0 (Frame.corrupt c);
  Frame.close c

(* ------------------------------------------------------------------ *)
(* wire protocol codec                                                *)
(* ------------------------------------------------------------------ *)

let test_msg_codec_roundtrip () =
  let msgs =
    [
      Fabric.Hello { mh_worker = "w-1"; mh_pid = 4242 };
      Fabric.Assign
        {
          ma_id = 17;
          ma_label = "table1:aerofoil 4x1x1";
          ma_spec =
            J.Obj
              [
                ("kind", J.Str "plan-sync");
                ("nested", J.List [ J.Int 1; J.Float 2.5; J.Null ]);
              ];
        };
      Fabric.Heartbeat { mb_id = 17 };
      Fabric.Result
        { mr_id = 17; mr_result = J.Obj [ ("before", J.Int 102) ] };
      Fabric.Failure { mf_id = 17; mf_error = "Division_by_zero" };
      Fabric.Shutdown;
    ]
  in
  List.iteri
    (fun i m ->
      match Fabric.msg_of_string (Fabric.msg_to_string m) with
      | Ok m' ->
          if m' <> m then Alcotest.failf "message %d changed over the wire" i
      | Error e -> Alcotest.failf "message %d unparsable: %s" i e)
    msgs;
  (match Fabric.msg_of_string "{\"type\":\"warp\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown type must not decode");
  match Fabric.msg_of_string "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not decode"

let test_addr_parsing () =
  let ok s = function
    | expected -> (
        match Fabric.addr_of_string s with
        | Ok a when a = expected -> ()
        | Ok a ->
            Alcotest.failf "%s parsed as %s" s (Fabric.addr_to_string a)
        | Error e -> Alcotest.failf "%s rejected: %s" s e)
  in
  ok "unix:/tmp/x.sock" (Fabric.Unix_path "/tmp/x.sock");
  ok "/tmp/x.sock" (Fabric.Unix_path "/tmp/x.sock");
  ok "localhost:8080" (Fabric.Tcp ("localhost", 8080));
  ok "127.0.0.1:0" (Fabric.Tcp ("127.0.0.1", 0));
  List.iter
    (fun s ->
      match Fabric.addr_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must not parse" s)
    [ ""; "unix:"; "host:99999"; ":1234" ]

(* ------------------------------------------------------------------ *)
(* master/worker end to end (workers as in-process serve threads)     *)
(* ------------------------------------------------------------------ *)

let next_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocfd_fabric_test_%d_%d.sock" (Unix.getpid ()) !n)

let job i =
  Sched.Job.make
    ~label:(Printf.sprintf "j%d" i)
    ~key:(J.Obj [ ("i", J.Int i) ])
    ~spec:(J.Obj [ ("i", J.Int i) ])
    (fun () -> J.Obj [ ("sq", J.Int (i * i)) ])

let square_spec spec =
  match J.member "i" spec with
  | Some (J.Int i) -> J.Obj [ ("sq", J.Int (i * i)) ]
  | _ -> raise (J.Parse_error "bad spec")

let serve_thread ?id addr resolve =
  Thread.create
    (fun () ->
      match
        Fabric.serve ~connect:addr ?id ~heartbeat:0.05 ~resolve ()
      with
      | Ok () -> ()
      | Error e -> Printf.eprintf "test worker: %s\n%!" e)
    ()

let expect_squares results n =
  Alcotest.(check int) "result count" n (Array.length results);
  Array.iteri
    (fun i r ->
      match r with
      | Ok v -> (
          match J.member "sq" v with
          | Some (J.Int sq) ->
              Alcotest.(check int) (Printf.sprintf "job %d" i) (i * i) sq
          | _ -> Alcotest.failf "job %d: malformed result" i)
      | Error e -> Alcotest.failf "job %d failed: %s" i e)
    results

let test_fabric_end_to_end () =
  let cfg = { Fabric.default_cfg with Fabric.fb_grace = 5.0 } in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let addr = Fabric.addr fb in
  (* the first job waits for a second one to start, which only the other
     worker can take, so the batch cannot finish before both connect *)
  let started = Atomic.make 0 in
  let resolve spec =
    Atomic.incr started;
    let deadline = Unix.gettimeofday () +. 10.0 in
    while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
      Thread.delay 0.005
    done;
    square_spec spec
  in
  let w1 = serve_thread ~id:"alpha" addr resolve in
  let w2 = serve_thread ~id:"beta" addr resolve in
  let results, stats = Fabric.run fb (List.init 12 job) in
  expect_squares results 12;
  Alcotest.(check int) "no errors" 0 stats.Sched.Pool.ps_errors;
  let fs = Fabric.stats fb in
  Alcotest.(check bool) "not degraded" false fs.Fabric.fs_degraded;
  Alcotest.(check int) "both workers said hello" 2
    (List.length fs.Fabric.fs_workers);
  Alcotest.(check int) "every job leased remotely" 12
    (List.fold_left
       (fun acc (w : Fabric.worker_stats) -> acc + w.Fabric.ws_done)
       0 fs.Fabric.fs_workers);
  Fabric.shutdown fb;
  Thread.join w1;
  Thread.join w2

let test_fabric_tcp_end_to_end () =
  (* same contract over a real TCP socket, port picked by the kernel *)
  let fb = Fabric.create ~listen:(Fabric.Tcp ("127.0.0.1", 0)) () in
  (match Fabric.addr fb with
  | Fabric.Tcp (_, p) when p > 0 -> ()
  | a -> Alcotest.failf "expected a bound port, got %s" (Fabric.addr_to_string a));
  let w = serve_thread (Fabric.addr fb) square_spec in
  let results, _ = Fabric.run fb (List.init 6 job) in
  expect_squares results 6;
  Fabric.shutdown fb;
  Thread.join w

let test_degrades_without_workers () =
  let cfg = { Fabric.default_cfg with Fabric.fb_grace = 0.2 } in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let results, _ = Fabric.run fb (List.init 5 job) in
  expect_squares results 5;
  let fs = Fabric.stats fb in
  Alcotest.(check bool) "reported degradation" true fs.Fabric.fs_degraded;
  Fabric.shutdown fb

let test_speclessness_runs_on_master () =
  (* a job without a spec can never travel; the master runs it locally
     even with workers connected *)
  let cfg = { Fabric.default_cfg with Fabric.fb_grace = 5.0 } in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let w = serve_thread (Fabric.addr fb) square_spec in
  let local =
    Sched.Job.make ~label:"local" ~key:(J.Obj [ ("local", J.Bool true) ])
      (fun () -> J.Str "ran-on-master")
  in
  let results, _ = Fabric.run fb [ local; job 1 ] in
  (match results.(0) with
  | Ok (J.Str "ran-on-master") -> ()
  | _ -> Alcotest.fail "spec-less job did not run locally");
  (match results.(1) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "remote job failed: %s" e);
  Fabric.shutdown fb;
  Thread.join w

let test_quarantine_poisoned_job () =
  (* a spec every worker fails: bounded retries, then a quarantine error
     in the job's slot — and the rest of the batch still completes *)
  let cfg =
    {
      Fabric.default_cfg with
      Fabric.fb_grace = 5.0;
      fb_max_attempts = 2;
      fb_backoff = 0.005;
    }
  in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let resolve spec =
    match J.member "poison" spec with
    | Some (J.Bool true) -> failwith "resolver rejects this spec"
    | _ -> square_spec spec
  in
  let w = serve_thread (Fabric.addr fb) resolve in
  let poisoned =
    Sched.Job.make ~label:"poisoned"
      ~key:(J.Obj [ ("poison", J.Bool true) ])
      ~spec:(J.Obj [ ("poison", J.Bool true) ])
      (fun () -> J.Null)
  in
  let results, stats = Fabric.run fb [ job 0; poisoned; job 2 ] in
  (match results.(1) with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error mentions quarantine: %s" msg)
        true
        (String.length msg >= 11 && String.sub msg 0 11 = "quarantined")
  | Ok _ -> Alcotest.fail "poisoned job must not succeed");
  (match (results.(0), results.(2)) with
  | Ok _, Ok _ -> ()
  | _ -> Alcotest.fail "healthy jobs must survive the poisoned one");
  Alcotest.(check int) "one error" 1 stats.Sched.Pool.ps_errors;
  let fs = Fabric.stats fb in
  Alcotest.(check int) "quarantined once" 1 fs.Fabric.fs_quarantined;
  Alcotest.(check bool) "failures were retried" true (fs.Fabric.fs_retries >= 1);
  Fabric.shutdown fb;
  Thread.join w

(* a hand-driven fake worker: says hello, takes one assignment, then
   misbehaves as directed — the master must recover via a real worker *)
let fake_worker addr ~misbehave =
  Thread.create
    (fun () ->
      let sa =
        match addr with
        | Fabric.Unix_path p -> Unix.ADDR_UNIX p
        | Fabric.Tcp (h, p) ->
            Unix.ADDR_INET (Unix.inet_addr_of_string h, p)
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd sa;
      let conn = Frame.conn fd in
      Frame.send conn
        (Fabric.msg_to_string
           (Fabric.Hello { mh_worker = "saboteur"; mh_pid = 0 }));
      (* read messages until [stop] picks one or the master hangs up;
         the deadline outlasts the default 30 s lease, so a master that
         ignored a misbehaving worker fails the test rather than being
         rescued by this thread giving up *)
      let await stop =
        let found = ref None and quit = ref false in
        let deadline = Unix.gettimeofday () +. 60.0 in
        while (not !quit) && Unix.gettimeofday () < deadline do
          match Unix.select [ fd ] [] [] 0.05 with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | [], _, _ -> ()
          | _ -> (
              match Frame.pump conn with
              | exception Frame.Closed -> quit := true
              | payloads ->
                  List.iter
                    (fun p ->
                      match Fabric.msg_of_string p with
                      | Ok m when stop m <> None ->
                          found := stop m;
                          quit := true
                      | _ -> ())
                    payloads)
        done;
        !found
      in
      let assigned =
        await (function Fabric.Assign { ma_id; _ } -> Some ma_id | _ -> None)
      in
      let await_hangup () =
        ignore (await (function Fabric.Shutdown -> Some () | _ -> None))
      in
      (match (misbehave, assigned) with
      | `Die, _ -> ()
      | `Go_silent, _ ->
          (* hold the socket open but never heartbeat or reply; the
             lease must expire *)
          await_hangup ()
      | `Corrupt, Some id ->
          (* answer with a wrong result in a frame whose checksum does
             not match; the master must cut the connection *)
          let b =
            Frame.encode
              (Fabric.msg_to_string
                 (Fabric.Result
                    { mr_id = id; mr_result = J.Obj [ ("sq", J.Int (-1)) ] }))
          in
          Bytes.set_uint8 b 4 (Bytes.get_uint8 b 4 lxor 0xff);
          ignore (Unix.write fd b 0 (Bytes.length b));
          await_hangup ()
      | `Corrupt, None -> ());
      Frame.close conn)
    ()

let test_worker_death_requeues () =
  let cfg =
    { Fabric.default_cfg with Fabric.fb_grace = 5.0; fb_backoff = 0.005 }
  in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let addr = Fabric.addr fb in
  (* the saboteur connects first so it gets the first lease *)
  let saboteur = fake_worker addr ~misbehave:`Die in
  Thread.delay 0.1;
  let rescuer = serve_thread ~id:"rescuer" addr square_spec in
  let results, _ = Fabric.run fb (List.init 6 job) in
  expect_squares results 6;
  let fs = Fabric.stats fb in
  Alcotest.(check bool) "death observed" true (fs.Fabric.fs_worker_deaths >= 1);
  Alcotest.(check bool) "lease requeued" true (fs.Fabric.fs_requeues >= 1);
  Fabric.shutdown fb;
  Thread.join saboteur;
  Thread.join rescuer

let test_corrupt_frame_requeues () =
  let cfg =
    { Fabric.default_cfg with Fabric.fb_grace = 5.0; fb_backoff = 0.005 }
  in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let addr = Fabric.addr fb in
  let saboteur = fake_worker addr ~misbehave:`Corrupt in
  Thread.delay 0.1;
  let rescuer = serve_thread ~id:"rescuer" addr square_spec in
  let results, _ = Fabric.run fb (List.init 6 job) in
  expect_squares results 6;
  let fs = Fabric.stats fb in
  Alcotest.(check int) "corrupt frame counted" 1 fs.Fabric.fs_corrupt_frames;
  Alcotest.(check bool) "connection cut" true
    (fs.Fabric.fs_worker_deaths >= 1);
  Alcotest.(check bool) "lease requeued" true (fs.Fabric.fs_requeues >= 1);
  (* at once, not after the 30 s lease *)
  Alcotest.(check int) "no lease expired" 0 fs.Fabric.fs_lease_expiries;
  Fabric.shutdown fb;
  Thread.join saboteur;
  Thread.join rescuer

let test_lease_expiry_requeues () =
  let cfg =
    {
      Fabric.default_cfg with
      Fabric.fb_grace = 5.0;
      fb_lease = 0.3;
      fb_backoff = 0.005;
    }
  in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let addr = Fabric.addr fb in
  let silent = fake_worker addr ~misbehave:`Go_silent in
  Thread.delay 0.1;
  let rescuer = serve_thread ~id:"rescuer" addr square_spec in
  let results, _ = Fabric.run fb (List.init 6 job) in
  expect_squares results 6;
  let fs = Fabric.stats fb in
  Alcotest.(check bool) "lease expired" true (fs.Fabric.fs_lease_expiries >= 1);
  Alcotest.(check bool) "expired lease requeued" true
    (fs.Fabric.fs_requeues >= 1);
  Fabric.shutdown fb;
  Thread.join silent;
  Thread.join rescuer

let test_heartbeat_keeps_slow_job_leased () =
  (* a resolver slower than the lease: heartbeats must keep the lease
     alive, so the job completes exactly once with no expiry *)
  let cfg =
    { Fabric.default_cfg with Fabric.fb_grace = 5.0; fb_lease = 0.3 }
  in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let slow spec =
    Thread.delay 0.8;
    square_spec spec
  in
  let w = serve_thread (Fabric.addr fb) slow in
  let results, _ = Fabric.run fb [ job 3 ] in
  (match results.(0) with
  | Ok v -> (
      match J.member "sq" v with
      | Some (J.Int 9) -> ()
      | _ -> Alcotest.fail "slow job returned the wrong result")
  | Error e -> Alcotest.failf "slow job failed: %s" e);
  let fs = Fabric.stats fb in
  Alcotest.(check int) "no expiries" 0 fs.Fabric.fs_lease_expiries;
  Alcotest.(check int) "no requeues" 0 fs.Fabric.fs_requeues;
  Fabric.shutdown fb;
  Thread.join w

let test_cache_hits_skip_workers () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "autocfd_fabric_cache_%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let cache = Sched.Cache.create ~dir () in
  let cfg = { Fabric.default_cfg with Fabric.fb_grace = 5.0 } in
  let fb = Fabric.create ~cfg ~listen:(Fabric.Unix_path (next_sock ())) () in
  let w = serve_thread (Fabric.addr fb) square_spec in
  let r1, s1 = Fabric.run fb ~cache (List.init 5 job) in
  let r2, s2 = Fabric.run fb ~cache (List.init 5 job) in
  expect_squares r1 5;
  expect_squares r2 5;
  Alcotest.(check int) "cold misses" 5 s1.Sched.Pool.ps_misses;
  Alcotest.(check int) "warm hits" 5 s2.Sched.Pool.ps_hits;
  Fabric.shutdown fb;
  Thread.join w;
  Sched.Cache.clear cache;
  try Sys.rmdir dir with Sys_error _ -> ()

let suite =
  [
    ("frame codec round-trip", `Quick, test_frame_roundtrip);
    ("frame checksum rejects mangled bytes", `Quick,
     test_frame_checksum_rejects);
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 15 |])
      prop_frame_reader;
    ("frame socket errors close the connection", `Quick,
     test_frame_conn_errors_close);
    ("protocol messages round-trip", `Quick, test_msg_codec_roundtrip);
    ("address parsing", `Quick, test_addr_parsing);
    ("end to end over unix socket", `Quick, test_fabric_end_to_end);
    ("end to end over tcp", `Quick, test_fabric_tcp_end_to_end);
    ("degrades without workers", `Quick, test_degrades_without_workers);
    ("spec-less jobs run on the master", `Quick,
     test_speclessness_runs_on_master);
    ("poisoned job quarantined", `Quick, test_quarantine_poisoned_job);
    ("worker death requeues its lease", `Quick, test_worker_death_requeues);
    ("corrupt frame requeues at once", `Quick, test_corrupt_frame_requeues);
    ("silent worker's lease expires", `Quick, test_lease_expiry_requeues);
    ("heartbeat keeps a slow job leased", `Quick,
     test_heartbeat_keeps_slow_job_leased);
    ("cache hits never touch a worker", `Quick, test_cache_hits_skip_workers);
  ]
