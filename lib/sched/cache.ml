module J = Autocfd_obs.Json

type t = { c_dir : string; c_corrupt : int Atomic.t; c_stale : int }

(* temp files left behind by a writer that was killed between
   [open_temp_file] and [rename]: anything matching [*.tmp] older than
   [stale_age] seconds cannot belong to a live writer and is removed *)
let sweep_stale ~stale_age dir =
  let now = Unix.gettimeofday () in
  Array.fold_left
    (fun cleaned name ->
      if not (Filename.check_suffix name ".tmp") then cleaned
      else
        let path = Filename.concat dir name in
        match Unix.stat path with
        | exception Unix.Unix_error _ -> cleaned
        | st when st.Unix.st_kind = Unix.S_REG
                  && now -. st.Unix.st_mtime >= stale_age -> (
            try
              Sys.remove path;
              cleaned + 1
            with Sys_error _ -> cleaned)
        | _ -> cleaned)
    0
    (try Sys.readdir dir with Sys_error _ -> [||])

let create ?(dir = "_autocfd_cache") ?(stale_age = 600.0) () =
  (if not (Sys.file_exists dir) then
     try Sys.mkdir dir 0o755
     with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir ->
       (* a racing domain or process created it first *)
       ());
  if not (Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": not a directory"));
  (try Unix.access dir [ Unix.W_OK; Unix.X_OK ]
   with Unix.Unix_error (e, _, _) ->
     raise (Sys_error (dir ^ ": " ^ Unix.error_message e)));
  { c_dir = dir; c_corrupt = Atomic.make 0; c_stale = sweep_stale ~stale_age dir }

let dir t = t.c_dir
let corruption_misses t = Atomic.get t.c_corrupt
let stale_cleaned t = t.c_stale

let path_of t job = Filename.concat t.c_dir (Job.cache_name job ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lookup t job =
  let path = path_of t job in
  if not (Sys.file_exists path) then None
  else
    let miss () =
      Atomic.incr t.c_corrupt;
      None
    in
    match J.of_string (read_file path) with
    | exception (Sys_error _ | J.Parse_error _) -> miss ()
    | doc -> (
        match (J.member "key" doc, J.member "result" doc) with
        | Some stored, Some result
          when J.canonical stored = J.canonical job.Job.jb_key ->
            Some result
        | _ -> miss ())

let write_atomic ~path text =
  let dir = Filename.dirname path in
  let tmp, oc =
    Filename.open_temp_file ~temp_dir:dir ~mode:[ Open_binary ] ~perms:0o666
      (Filename.basename path) ".tmp"
  in
  (try
     output_string oc text;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path

let store t job result =
  let doc = J.Obj [ ("key", job.Job.jb_key); ("result", result) ] in
  write_atomic ~path:(path_of t job) (J.pretty doc)

let clear t =
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".json" then
        try Sys.remove (Filename.concat t.c_dir name) with Sys_error _ -> ())
    (try Sys.readdir t.c_dir with Sys_error _ -> [||])
