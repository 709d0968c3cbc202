module Trace = Autocfd_obs.Trace

exception Deadlock of string
exception Timeout of string
exception Rank_failure of int * exn

let () =
  Printexc.register_printer (function
    | Rank_failure (r, e) ->
        Some (Printf.sprintf "rank %d: %s" r (Printexc.to_string e))
    | _ -> None)

type red_op = [ `Max | `Min | `Sum ]

let red_op_name = function `Max -> "max" | `Min -> "min" | `Sum -> "sum"

type message = { arrival : float; data : float array }

(* a collective call: every rank must make the same kind of call; the
   result reaches each rank as a float array (empty for a barrier, the
   combined value for an allreduce) *)
type coll =
  | C_barrier
  | C_allreduce of red_op * float
  | C_bcast of int * float array option  (* root, root's payload *)

type _ Effect.t +=
  | E_recv_t : int * int * float -> float array option Effect.t
  | E_coll : coll -> float array Effect.t
  | E_halt : unit Effect.t

type status =
  | Not_started
  | Running  (** transient, while its continuation is on the OCaml stack *)
  | Done
  | Crashed  (** halted by an injected fault; its fiber was abandoned *)
  | W_recv_t of
      int * int * float * (float array option, unit) Effect.Deep.continuation
      (** a receive on (src, tag); [None] is delivered after the deadline,
          which is [infinity] for a blocking {!recv} *)
  | W_coll of coll * (float array, unit) Effect.Deep.continuation

type state = {
  n : int;
  net : Netmodel.t;
  times : float array;
  status : status array;
  mailboxes : (int * int * int, message Queue.t) Hashtbl.t;
      (** (dest, src, tag) -> queue *)
  mutable messages : int;
  mutable bytes : int;
  mutable collectives : int;
  rank_sends : int array;
  rank_recvs : int array;
  rank_blocked : float array;
  tracer : Trace.t option;
  faults : Fault.plan option;
}

type comm = { id : int; st : state }

let rank c = c.id
let nranks c = c.st.n
let time c = c.st.times.(c.id)
let tracer_of c = c.st.tracer
let net_of c = c.st.net

let trace_fault c ~what ~peer ~dur =
  match c.st.tracer with
  | Some tr ->
      let t = c.st.times.(c.id) in
      Trace.record tr ~rank:c.id ~t0:(t -. dur) ~t1:t
        (Trace.Fault { what; peer })
  | None -> ()

(* Check the rank's stall/crash triggers.  A stall silently advances the
   rank's clock (a straggler pause); a crash abandons the fiber via
   [E_halt], leaving every in-flight message it owed other ranks
   undelivered. *)
let op_check c ~is_op =
  match c.st.faults with
  | None -> ()
  | Some plan -> (
      match Fault.on_op plan ~rank:c.id ~time:c.st.times.(c.id) ~is_op with
      | Fault.Op_none -> ()
      | Fault.Op_stall d ->
          c.st.times.(c.id) <- c.st.times.(c.id) +. d;
          c.st.rank_blocked.(c.id) <- c.st.rank_blocked.(c.id) +. d;
          trace_fault c ~what:"stall" ~peer:(-1) ~dur:d
      | Fault.Op_crash ->
          trace_fault c ~what:"crash" ~peer:(-1) ~dur:0.0;
          Effect.perform E_halt)

let advance c dt =
  let t0 = c.st.times.(c.id) in
  c.st.times.(c.id) <- t0 +. dt;
  (match c.st.tracer with
  | Some tr when dt <> 0.0 ->
      Trace.record tr ~rank:c.id ~t0 ~t1:(t0 +. dt) Trace.Compute
  | _ -> ());
  op_check c ~is_op:false

let mailbox st key =
  match Hashtbl.find_opt st.mailboxes key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace st.mailboxes key q;
      q

let send c ~dest ~tag data =
  let st = c.st in
  if dest < 0 || dest >= st.n then invalid_arg "Sim.send: bad destination";
  op_check c ~is_op:true;
  let t0 = st.times.(c.id) in
  st.times.(c.id) <- t0 +. st.net.Netmodel.send_overhead;
  let bytes = 8 * Array.length data in
  let verdict =
    match st.faults with
    | None -> Fault.clean_verdict
    | Some p -> Fault.on_send p ~src:c.id ~dest ~words:(Array.length data)
  in
  let arrival =
    st.times.(c.id)
    +. (Netmodel.message_time st.net ~bytes *. verdict.Fault.sv_factor)
    +. verdict.Fault.sv_delay
  in
  st.messages <- st.messages + 1;
  st.bytes <- st.bytes + bytes;
  st.rank_sends.(c.id) <- st.rank_sends.(c.id) + 1;
  (match st.tracer with
  | Some tr ->
      Trace.record tr ~rank:c.id ~t0 ~t1:st.times.(c.id)
        (Trace.Send { dest; tag; bytes })
  | None -> ());
  if verdict.Fault.sv_drop then trace_fault c ~what:"loss" ~peer:dest ~dur:0.0
  else begin
    let payload = Array.copy data in
    (match verdict.Fault.sv_corrupt with
    | Some (w, b) when w < Array.length payload ->
        payload.(w) <-
          Int64.float_of_bits
            (Int64.logxor
               (Int64.bits_of_float payload.(w))
               (Int64.shift_left 1L b));
        trace_fault c ~what:"corrupt" ~peer:dest ~dur:0.0
    | _ -> ());
    let q = mailbox st (dest, c.id, tag) in
    let msg = { arrival; data = payload } in
    if verdict.Fault.sv_reorder && Queue.length q > 0 then begin
      (* adversarial delivery shuffle: the fresh message overtakes the
         one queued just before it, so the receiver pops them swapped *)
      let items = List.rev (Queue.fold (fun acc m -> m :: acc) [] q) in
      Queue.clear q;
      let rec repush = function
        | [ last ] ->
            Queue.push msg q;
            Queue.push last q
        | earlier :: rest ->
            Queue.push earlier q;
            repush rest
        | [] -> Queue.push msg q
      in
      repush items;
      trace_fault c ~what:"reorder" ~peer:dest ~dur:0.0
    end
    else Queue.push msg q;
    if verdict.Fault.sv_duplicate then begin
      (* the duplicate trails the original by one degraded latency, so
         queue order stays FIFO by arrival *)
      Queue.push
        {
          arrival =
            arrival +. (st.net.Netmodel.latency *. verdict.Fault.sv_factor);
          data = Array.copy payload;
        }
        q;
      st.messages <- st.messages + 1;
      st.bytes <- st.bytes + bytes;
      trace_fault c ~what:"duplicate" ~peer:dest ~dur:0.0
    end
  end

let recv c ~src ~tag =
  if src < 0 || src >= c.st.n then invalid_arg "Sim.recv: bad source";
  op_check c ~is_op:true;
  Option.get (Effect.perform (E_recv_t (src, tag, infinity)))

let recv_deadline c ~src ~tag ~deadline =
  if src < 0 || src >= c.st.n then invalid_arg "Sim.recv_deadline: bad source";
  op_check c ~is_op:true;
  Effect.perform (E_recv_t (src, tag, deadline))

(* Nonblocking probe: deliver only a message that has already arrived on
   the rank's virtual clock.  Never blocks, never advances time past the
   recv overhead. *)
let try_recv c ~src ~tag =
  if src < 0 || src >= c.st.n then invalid_arg "Sim.try_recv: bad source";
  op_check c ~is_op:false;
  let st = c.st in
  match Hashtbl.find_opt st.mailboxes (c.id, src, tag) with
  | Some q when not (Queue.is_empty q) ->
      let now = st.times.(c.id) in
      if (Queue.peek q).arrival <= now then begin
        let msg = Queue.pop q in
        let t1 = now +. st.net.Netmodel.recv_overhead in
        st.times.(c.id) <- t1;
        st.rank_recvs.(c.id) <- st.rank_recvs.(c.id) + 1;
        (match st.tracer with
        | Some tr ->
            Trace.record tr ~rank:c.id ~t0:now ~t1
              (Trace.Recv { src; tag; bytes = 8 * Array.length msg.data })
        | None -> ());
        Some msg.data
      end
      else None
  | _ -> None

let collective c coll =
  op_check c ~is_op:true;
  Effect.perform (E_coll coll)

let barrier c = ignore (collective c C_barrier : float array)
let allreduce c op v = (collective c (C_allreduce (op, v))).(0)

let bcast c ~root data =
  collective c (C_bcast (root, if c.id = root then Some data else None))

type stats = {
  elapsed : float;
  rank_times : float array;
  messages : int;
  bytes : int;
  collectives : int;
  rank_sends : int array;
  rank_recvs : int array;
  rank_blocked : float array;
}

let collective_cost st ~bytes =
  let stages =
    int_of_float (Float.round (ceil (Float.log2 (float_of_int (max 2 st.n)))))
  in
  float_of_int stages *. Netmodel.message_time st.net ~bytes

let run ?(net = Netmodel.fast) ?tracer ?faults ~nranks body =
  if nranks < 1 then invalid_arg "Sim.run: nranks must be >= 1";
  (match tracer with Some tr -> Trace.prepare tr ~nranks | None -> ());
  (match faults with Some p -> Fault.begin_run p | None -> ());
  let st =
    {
      n = nranks;
      net;
      times = Array.make nranks 0.0;
      status = Array.make nranks Not_started;
      mailboxes = Hashtbl.create 64;
      messages = 0;
      bytes = 0;
      collectives = 0;
      rank_sends = Array.make nranks 0;
      rank_recvs = Array.make nranks 0;
      rank_blocked = Array.make nranks 0.0;
      tracer;
      faults;
    }
  in
  let handler i =
    let open Effect.Deep in
    {
      retc = (fun () -> st.status.(i) <- Done);
      exnc = (fun e -> raise (Rank_failure (i, e)));
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | E_recv_t (src, tag, deadline) ->
              Some
                (fun (k : (a, unit) continuation) ->
                  st.status.(i) <- W_recv_t (src, tag, deadline, k))
          | E_coll coll ->
              Some
                (fun (k : (a, unit) continuation) ->
                  st.status.(i) <- W_coll (coll, k))
          | E_halt ->
              Some
                (fun (k : (a, unit) continuation) ->
                  ignore k;
                  st.status.(i) <- Crashed)
          | _ -> None);
    }
  in
  let start i =
    let c = { id = i; st } in
    st.status.(i) <- Running;
    Effect.Deep.match_with body c (handler i)
  in
  let deliver i ~src ~tag msg k =
    let t0 = st.times.(i) in
    let arrive = Float.max t0 msg.arrival in
    let t1 = arrive +. net.Netmodel.recv_overhead in
    st.times.(i) <- t1;
    st.rank_recvs.(i) <- st.rank_recvs.(i) + 1;
    st.rank_blocked.(i) <- st.rank_blocked.(i) +. (arrive -. t0);
    (match st.tracer with
    | Some tr ->
        if arrive > t0 then
          Trace.record tr ~rank:i ~t0 ~t1:arrive (Trace.Blocked { src; tag });
        Trace.record tr ~rank:i ~t0:arrive ~t1
          (Trace.Recv { src; tag; bytes = 8 * Array.length msg.data })
    | None -> ());
    st.status.(i) <- Running;
    k msg.data
  in
  (* resume a deadline-receive with [None]: the rank idled until its
     deadline and the watchdog hands control back empty-handed *)
  let fire_deadline i ~src ~tag ~deadline k =
    let t0 = st.times.(i) in
    let t1 = Float.max t0 deadline in
    st.times.(i) <- t1;
    st.rank_blocked.(i) <- st.rank_blocked.(i) +. (t1 -. t0);
    (match st.tracer with
    | Some tr when t1 > t0 ->
        Trace.record tr ~rank:i ~t0 ~t1 (Trace.Blocked { src; tag })
    | _ -> ());
    st.status.(i) <- Running;
    Effect.Deep.continue k None
  in
  let try_deliver i =
    match st.status.(i) with
    | W_recv_t (src, tag, deadline, k) -> (
        match Hashtbl.find_opt st.mailboxes (i, src, tag) with
        | Some q when not (Queue.is_empty q) ->
            if (Queue.peek q).arrival <= deadline then begin
              let msg = Queue.pop q in
              deliver i ~src ~tag msg (fun d ->
                  Effect.Deep.continue k (Some d));
              true
            end
            else begin
              (* the queued message cannot make the deadline: time out
                 now rather than waiting for a global stall *)
              fire_deadline i ~src ~tag ~deadline k;
              true
            end
        | _ -> false)
    | _ -> false
  in
  (* advance every clock to the collective's completion time, attributing
     the assembly wait as blocked-idle and the cost itself as comm *)
  let collective_advance ~op ~bytes ~cost =
    let tmax = Array.fold_left Float.max 0.0 st.times in
    let t = tmax +. cost in
    Array.iteri
      (fun i ti ->
        st.rank_blocked.(i) <- st.rank_blocked.(i) +. Float.max 0.0 (tmax -. ti);
        match st.tracer with
        | Some tr ->
            if tmax > ti then
              Trace.record tr ~rank:i ~t0:ti ~t1:tmax
                (Trace.Blocked { src = -1; tag = -1 });
            Trace.record tr ~rank:i ~t0:tmax ~t1:t
              (Trace.Collective { op; bytes })
        | None -> ())
      st.times;
    Array.fill st.times 0 st.n t;
    st.collectives <- st.collectives + 1
  in
  let describe () =
    let b = Buffer.create 128 in
    Array.iteri
      (fun i s ->
        let d =
          match s with
          | Not_started -> "not started"
          | Running -> "running"
          | Done -> "done"
          | Crashed -> Printf.sprintf "crashed at t=%.9g" st.times.(i)
          | W_recv_t (src, tag, deadline, _) when deadline = infinity ->
              Printf.sprintf "blocked on recv(src=%d, tag=%d) at t=%.9g" src
                tag st.times.(i)
          | W_recv_t (src, tag, deadline, _) ->
              Printf.sprintf
                "blocked on recv(src=%d, tag=%d, deadline=%.9g) at t=%.9g" src
                tag deadline st.times.(i)
          | W_coll (C_barrier, _) ->
              Printf.sprintf "blocked in barrier at t=%.9g" st.times.(i)
          | W_coll (C_allreduce (op, _), _) ->
              Printf.sprintf "blocked in allreduce(%s) at t=%.9g"
                (red_op_name op) st.times.(i)
          | W_coll (C_bcast (root, _), _) ->
              Printf.sprintf "blocked in bcast(root=%d) at t=%.9g" root
                st.times.(i)
        in
        Buffer.add_string b (Printf.sprintf "rank %d: %s; " i d))
      st.status;
    Buffer.contents b
  in
  (* resolve a collective when every rank has arrived at one of the same
     kind; mismatched operations or roots are a programming error *)
  let try_collective () =
    let kind = function
      | C_barrier -> 0
      | C_allreduce _ -> 1
      | C_bcast _ -> 2
    in
    match st.status.(0) with
    | W_coll (c0, _)
      when Array.for_all
             (function W_coll (c, _) -> kind c = kind c0 | _ -> false)
             st.status ->
        let colls =
          Array.map (function W_coll (c, _) -> c | _ -> c0) st.status
        in
        let op, bytes, cost, result =
          match c0 with
          | C_barrier -> ("barrier", 8, collective_cost st ~bytes:8, [||])
          | C_allreduce (op0, _) ->
              let mismatch () =
                Deadlock
                  ("allreduce with mismatched operations: " ^ describe ())
              in
              let vs =
                Array.map
                  (function
                    | C_allreduce (op, v) when op = op0 -> v
                    | _ -> raise (mismatch ()))
                  colls
              in
              let combine a b =
                match op0 with
                | `Max -> Float.max a b
                | `Min -> Float.min a b
                | `Sum -> a +. b
              in
              let value = ref vs.(0) in
              for i = 1 to st.n - 1 do
                value := combine !value vs.(i)
              done;
              ( "allreduce", 8, 2.0 *. collective_cost st ~bytes:8,
                [| !value |] )
          | C_bcast (root0, _) ->
              if
                Array.exists
                  (function C_bcast (r, _) -> r <> root0 | _ -> true)
                  colls
              then
                raise
                  (Deadlock ("bcast with mismatched roots: " ^ describe ()));
              let data =
                match colls.(root0) with
                | C_bcast (_, Some d) -> d
                | _ ->
                    raise
                      (Deadlock ("bcast root provided no data: " ^ describe ()))
              in
              let bytes = 8 * Array.length data in
              ("bcast", bytes, collective_cost st ~bytes, data)
        in
        collective_advance ~op ~bytes ~cost;
        let ks =
          Array.map (function W_coll (_, k) -> k | _ -> assert false) st.status
        in
        Array.fill st.status 0 st.n Running;
        Array.iter (fun k -> Effect.Deep.continue k (Array.copy result)) ks;
        true
    | _ -> false
  in
  let all_done () = Array.for_all (fun s -> s = Done) st.status in
  (* when nothing else can move, let the earliest-deadline watchdog fire
     (lowest rank on ties, so scheduling stays deterministic); a blocking
     receive's infinite deadline never fires *)
  let fire_earliest_deadline () =
    let best = ref None in
    Array.iteri
      (fun i s ->
        match s with
        | W_recv_t (_, _, d, _) when d < infinity -> (
            match !best with
            | Some (_, bd) when bd <= d -> ()
            | _ -> best := Some (i, d))
        | _ -> ())
      st.status;
    match !best with
    | None -> false
    | Some (i, _) -> (
        match st.status.(i) with
        | W_recv_t (src, tag, deadline, k) ->
            fire_deadline i ~src ~tag ~deadline k;
            true
        | _ -> assert false)
  in
  while not (all_done ()) do
    let progressed = ref false in
    for i = 0 to st.n - 1 do
      match st.status.(i) with
      | Not_started ->
          start i;
          progressed := true
      | _ -> if try_deliver i then progressed := true
    done;
    if try_collective () then progressed := true;
    if (not !progressed) && not (all_done ()) then
      if fire_earliest_deadline () then ()
      else begin
        let crashed = Array.exists (fun s -> s = Crashed) st.status in
        let faulty =
          match st.faults with Some p -> Fault.any_fired p | None -> false
        in
        let msg = "no progress possible: " ^ describe () in
        if crashed || faulty then raise (Timeout msg)
        else raise (Deadlock msg)
      end
  done;
  {
    elapsed = Array.fold_left Float.max 0.0 st.times;
    rank_times = Array.copy st.times;
    messages = st.messages;
    bytes = st.bytes;
    collectives = st.collectives;
    rank_sends = Array.copy st.rank_sends;
    rank_recvs = Array.copy st.rank_recvs;
    rank_blocked = Array.copy st.rank_blocked;
  }
