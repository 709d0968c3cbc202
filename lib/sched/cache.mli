(** Persistent content-addressed result cache for sweep jobs.

    Completed jobs are memoized on disk under
    [<dir>/<fnv64-of-canonical-key>.json], one file per key, holding both
    the full canonical key and the result:

    {v { "key": { "code": ..., "spec": ... }, "result": ... } v}

    Storing the key alongside the result makes hash collisions harmless
    (a lookup whose stored key differs from the probe key is a miss) and
    makes entries self-describing for tooling.  Writes are atomic —
    rendered to a temporary file in the cache directory, then renamed —
    so an interrupted run or two racing worker domains can never leave a
    torn entry.  Lookups treat unreadable or malformed entries as
    misses. *)

type t

val create : ?dir:string -> ?stale_age:float -> unit -> t
(** [create ()] opens (creating if needed) the cache directory, default
    ["_autocfd_cache"], and sweeps away stale [*.tmp] files left by
    writers that were killed mid-store: any temp file older than
    [stale_age] seconds (default 600; the count is {!stale_cleaned}).
    @raise Sys_error if the directory cannot be created or is not
    writable. *)

val dir : t -> string

val stale_cleaned : t -> int
(** Stale temp files deleted when this handle opened the directory. *)

val corruption_misses : t -> int
(** Lookups (since {!create}) that found an entry file but could not use
    it: unreadable or malformed JSON, a missing [key]/[result] field, or
    a stored key that differs from the probe key (hash collision or torn
    write).  Each such probe counted once; ordinary cold misses (no entry
    file) are not included. *)

val lookup : t -> Job.t -> Autocfd_obs.Json.t option
(** The stored result, iff an entry exists whose stored key is
    canonically equal to the job's key. *)

val store : t -> Job.t -> Autocfd_obs.Json.t -> unit
(** Atomically (over-)write the job's entry. *)

val clear : t -> unit
(** Remove every [*.json] entry (used by the CI smoke step to force a
    cold first pass). *)

val write_atomic : path:string -> string -> unit
(** Write [text] to a temporary file in [path]'s directory and rename it
    over [path]: readers see either the old or the new complete file,
    never a prefix.  The file is created as [open_out] creates one (mode
    0o666 less the umask).  Also used for every file the CLI writes. *)
