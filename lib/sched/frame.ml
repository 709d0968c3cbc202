let header_len = 4 + 8
let max_payload = 1 lsl 26

let encode payload =
  let n = String.length payload in
  if n > max_payload then invalid_arg "Frame.encode: payload too large";
  let b = Bytes.create (header_len + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.set_int64_be b 4 (Job.fnv64 payload);
  Bytes.blit_string payload 0 b header_len n;
  b

(* the undecoded bytes are [rd_buf] from [rd_pos] on *)
type reader = { rd_buf : string; rd_pos : int }

let empty = { rd_buf = ""; rd_pos = 0 }

let feed r s =
  let rest = String.length r.rd_buf - r.rd_pos in
  if rest = 0 then { rd_buf = s; rd_pos = 0 }
  else { rd_buf = String.sub r.rd_buf r.rd_pos rest ^ s; rd_pos = 0 }

type step = Payload of string * reader | Need_more | Corrupt

let next r =
  let avail = String.length r.rd_buf - r.rd_pos in
  if avail < header_len then Need_more
  else
    (* a length with the top bit set reads back negative *)
    let len = Int32.to_int (String.get_int32_be r.rd_buf r.rd_pos) in
    if len < 0 || len > max_payload then Corrupt
    else if avail < header_len + len then Need_more
    else
      let payload = String.sub r.rd_buf (r.rd_pos + header_len) len in
      if String.get_int64_be r.rd_buf (r.rd_pos + 4) <> Job.fnv64 payload
      then Corrupt
      else Payload (payload, { r with rd_pos = r.rd_pos + header_len + len })

exception Closed

type conn = {
  cn_fd : Unix.file_descr;
  cn_lock : Mutex.t;
  cn_chunk : Bytes.t;
  mutable cn_rd : reader;
  mutable cn_corrupt : int;
  mutable cn_closed : bool;
}

let conn fd =
  (* a write to a dead peer must fail with EPIPE, not kill the process *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  {
    cn_fd = fd;
    cn_lock = Mutex.create ();
    cn_chunk = Bytes.create 65536;
    cn_rd = empty;
    cn_corrupt = 0;
    cn_closed = false;
  }

let fd c = c.cn_fd
let corrupt c = c.cn_corrupt

(* On a stream socket every error but EINTR means the peer or the path
   to it is gone (EPIPE, ECONNRESET, ENOTCONN, ETIMEDOUT, EHOSTUNREACH
   from a half-open TCP peer, ...): the connection is over. *)
let rec write_all fd b off len =
  if len > 0 then
    match Unix.write fd b off len with
    | n -> write_all fd b (off + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_all fd b off len
    | exception Unix.Unix_error _ -> raise Closed

let send c payload =
  let frame = encode payload in
  Mutex.protect c.cn_lock (fun () ->
      if c.cn_closed then raise Closed;
      write_all c.cn_fd frame 0 (Bytes.length frame))

let rec read c =
  match Unix.read c.cn_fd c.cn_chunk 0 (Bytes.length c.cn_chunk) with
  | n -> n
  | exception Unix.Unix_error (EINTR, _, _) -> read c
  | exception Unix.Unix_error _ -> 0

let pump c =
  (* EOF with a frame half-received is a peer that died mid-write, not
     corruption *)
  let n = read c in
  if n = 0 then raise Closed;
  c.cn_rd <- feed c.cn_rd (Bytes.sub_string c.cn_chunk 0 n);
  let rec drain acc =
    match next c.cn_rd with
    | Payload (p, rd) ->
        c.cn_rd <- rd;
        drain (p :: acc)
    | Need_more -> List.rev acc
    | Corrupt ->
        c.cn_corrupt <- c.cn_corrupt + 1;
        raise Closed
  in
  drain []

let close c =
  Mutex.protect c.cn_lock (fun () ->
      if not c.cn_closed then begin
        c.cn_closed <- true;
        try Unix.close c.cn_fd with Unix.Unix_error _ -> ()
      end)
