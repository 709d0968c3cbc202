exception Rank_failure of int * exn

(* raised inside a rank when another rank has already failed: unwinds the
   body quietly so the run can join and re-raise the original exception *)
exception Poisoned

type shared = {
  n : int;
  m : Mutex.t;
  cv : Condition.t;
  arrived : int Atomic.t;  (* ranks at the current barrier *)
  generation : int Atomic.t;  (* barriers completed so far *)
  poll : bool;  (* every rank has a core: poll, then sleep (see [run]) *)
  poisoned : (int * exn) option Atomic.t;
  red_slots : float array;  (* one contribution slot per rank *)
  mutable bc_slot : float array;  (* broadcast payload, valid between barriers *)
  mailboxes : (int * int * int, float array Queue.t) Hashtbl.t;
      (* (src, dest, tag) -> queued payload copies, FIFO *)
  mutable t0 : float;  (* wall clock at run start *)
}

type wait = { w_start : float; w_dur : float; w_barrier : bool }

type comm = {
  sh : shared;
  r : int;
  mutable c_barrier_wait : float;
  mutable c_barrier_calls : int;
  mutable c_recv_wait : float;
  mutable c_sends : int;
  mutable c_recvs : int;
  mutable c_bytes : int;
  mutable c_waits : wait list;  (* reversed: newest first *)
  mutable c_nwaits : int;  (* length of [c_waits] *)
}

type rank_stats = {
  rs_wall : float;
  rs_barrier_wait : float;
  rs_barrier_calls : int;
  rs_recv_wait : float;
  rs_sends : int;
  rs_recvs : int;
  rs_bytes : int;
  rs_waits : wait list;
}

type stats = { elapsed : float; ranks : rank_stats array }

let rank c = c.r
let nranks c = c.sh.n
let now () = Unix.gettimeofday ()
let time c = now () -. c.sh.t0
let waited c = c.c_barrier_wait +. c.c_recv_wait
let wait_count c = c.c_nwaits
let is_poisoned sh = Atomic.get sh.poisoned <> None
let check_poison sh = if is_poisoned sh then raise Poisoned

(* every sleep below happens on the single shared condvar, so a poison
   broadcast is guaranteed to wake every blocked rank whatever it waits on *)
let with_lock sh f =
  Mutex.lock sh.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock sh.m) f

let record_wait c ~t_start ~dur ~barrier =
  if barrier then c.c_barrier_wait <- c.c_barrier_wait +. dur
  else c.c_recv_wait <- c.c_recv_wait +. dur;
  c.c_waits <-
    { w_start = t_start -. c.sh.t0; w_dur = dur; w_barrier = barrier }
    :: c.c_waits;
  c.c_nwaits <- c.c_nwaits + 1

(* How long a barrier waiter polls before it sleeps on the condvar.
   Traced Domains runs of the paper grids on 2 ranks of a 2-vCPU host,
   with the condvar alone, wait at a barrier for a median 17-18 us on
   aerofoil (90th percentile 470-510 us) and 8 us on sprayer (21-66 us):
   50 us of polling covers most waits, while a long one (a peer still
   in its sweep) keeps its core busy at most 50 us before it sleeps. *)
let poll_s = 50e-6

(* The arrivals count in [arrived]; the last one resets it and advances
   [generation], under the mutex so that a waiter between its last check
   and its sleep cannot miss the broadcast.  Earlier arrivals poll the
   generation with [Domain.cpu_relax] for at most [poll_s] when every
   rank has a core, then sleep on the condvar.  The atomics give the
   happens-before edges: every rank's writes before its arrival are
   visible to every rank that sees the generation advance.  The wait is
   measured so barrier time can be told apart from compute time. *)
let barrier c =
  let sh = c.sh in
  c.c_barrier_calls <- c.c_barrier_calls + 1;
  check_poison sh;
  let g = Atomic.get sh.generation in
  if Atomic.fetch_and_add sh.arrived 1 = sh.n - 1 then begin
    Atomic.set sh.arrived 0;
    Mutex.lock sh.m;
    Atomic.incr sh.generation;
    Condition.broadcast sh.cv;
    Mutex.unlock sh.m
  end
  else begin
    let t = now () in
    let passed () = Atomic.get sh.generation <> g || is_poisoned sh in
    if sh.poll then begin
      let until = t +. poll_s in
      while (not (passed ())) && now () < until do
        Domain.cpu_relax ()
      done
    end;
    if not (passed ()) then
      with_lock sh (fun () ->
          while not (passed ()) do
            Condition.wait sh.cv sh.m
          done);
    record_wait c ~t_start:t ~dur:(now () -. t) ~barrier:true;
    check_poison sh
  end

(* Deterministic allreduce: contributions land in per-rank slots, then
   every rank folds them in rank order 0..n-1 with the same combine as
   Sim.allreduce, so the result is bit-identical to the simulator's and
   identical on every rank.  The second barrier keeps the slots alive
   until everyone has folded. *)
let allreduce c op v =
  let sh = c.sh in
  sh.red_slots.(c.r) <- v;
  barrier c;
  let combine a b =
    match op with
    | `Max -> Float.max a b
    | `Min -> Float.min a b
    | `Sum -> a +. b
  in
  let acc = ref sh.red_slots.(0) in
  for r = 1 to sh.n - 1 do
    acc := combine !acc sh.red_slots.(r)
  done;
  let out = !acc in
  barrier c;
  out

let bcast c ~root data =
  let sh = c.sh in
  if root < 0 || root >= sh.n then invalid_arg "Shm.bcast: bad root";
  if c.r = root then sh.bc_slot <- Array.copy data;
  barrier c;
  let out = Array.copy sh.bc_slot in
  barrier c;
  out

let mailbox sh key =
  match Hashtbl.find_opt sh.mailboxes key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace sh.mailboxes key q;
      q

let send c ~dest ~tag data =
  let sh = c.sh in
  if dest < 0 || dest >= sh.n then invalid_arg "Shm.send: bad dest";
  with_lock sh (fun () ->
      check_poison sh;
      Queue.push (Array.copy data) (mailbox sh (c.r, dest, tag));
      c.c_sends <- c.c_sends + 1;
      c.c_bytes <- c.c_bytes + (8 * Array.length data);
      Condition.broadcast sh.cv)

let recv c ~src ~tag =
  let sh = c.sh in
  if src < 0 || src >= sh.n then invalid_arg "Shm.recv: bad src";
  with_lock sh (fun () ->
      check_poison sh;
      let q = mailbox sh (src, c.r, tag) in
      if Queue.is_empty q then begin
        let t = now () in
        while Queue.is_empty q && not (is_poisoned sh) do
          Condition.wait sh.cv sh.m
        done;
        record_wait c ~t_start:t ~dur:(now () -. t) ~barrier:false;
        check_poison sh
      end;
      c.c_recvs <- c.c_recvs + 1;
      Queue.pop q)

let stats_of ~wall c =
  {
    rs_wall = wall;
    rs_barrier_wait = c.c_barrier_wait;
    rs_barrier_calls = c.c_barrier_calls;
    rs_recv_wait = c.c_recv_wait;
    rs_sends = c.c_sends;
    rs_recvs = c.c_recvs;
    rs_bytes = c.c_bytes;
    rs_waits = List.rev c.c_waits;
  }

let run ~nranks body =
  if nranks < 1 then invalid_arg "Shm.run: nranks < 1";
  let sh =
    {
      n = nranks;
      m = Mutex.create ();
      cv = Condition.create ();
      arrived = Atomic.make 0;
      generation = Atomic.make 0;
      (* polling pays only when every rank has a core.  On a 2-vCPU
         host, 12 alternating pairs with polling forced on against this
         choice (median Shm wall, 10 runs each) took 1.47x as long on
         [autocfd engine]'s 4-domain aerofoil, 2.28x on its sprayer,
         2.25x on the paper-grid sprayer at 3x2 and 3.72x on heat2d at
         3x2, each 12 of 12.  Only the run's own ranks are counted: a
         2-rank run beside one busy process polls, and there took 7%
         (aerofoil) and 28% (sprayer) longer than sleeping at once *)
      poll = nranks <= Domain.recommended_domain_count ();
      poisoned = Atomic.make None;
      red_slots = Array.make nranks 0.0;
      bc_slot = [||];
      mailboxes = Hashtbl.create 16;
      t0 = 0.0;
    }
  in
  let comms =
    Array.init nranks (fun r ->
        {
          sh;
          r;
          c_barrier_wait = 0.0;
          c_barrier_calls = 0;
          c_recv_wait = 0.0;
          c_sends = 0;
          c_recvs = 0;
          c_bytes = 0;
          c_waits = [];
          c_nwaits = 0;
        })
  in
  let finish = Array.make nranks 0.0 in
  let wrap r =
    (try body comms.(r) with
    | Poisoned -> ()
    | e ->
        with_lock sh (fun () ->
            ignore (Atomic.compare_and_set sh.poisoned None (Some (r, e)));
            Condition.broadcast sh.cv));
    finish.(r) <- now () -. sh.t0
  in
  sh.t0 <- now ();
  (* rank 0 runs on the calling domain, like Pool's worker 0 *)
  let doms =
    Array.init (nranks - 1) (fun k -> Domain.spawn (fun () -> wrap (k + 1)))
  in
  wrap 0;
  Array.iter Domain.join doms;
  (match Atomic.get sh.poisoned with
  | Some (r, e) -> raise (Rank_failure (r, e))
  | None -> ());
  {
    elapsed = Array.fold_left Float.max 0.0 finish;
    ranks = Array.mapi (fun r c -> stats_of ~wall:finish.(r) c) comms;
  }
