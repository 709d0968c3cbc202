(** One fully-specified unit of sweep work.

    A job pairs a {e canonical key} — the JSON description of everything
    that determines its result: the run specification, the program source
    digest and the code-version stamp — with a thunk that computes the
    result as JSON.  Keys are compared and content-addressed through
    {!Autocfd_obs.Json.canonical}, so two jobs built from structurally
    equal specs collide on the same cache entry no matter how their key
    objects were assembled. *)

type t = {
  jb_label : string;  (** human-readable, e.g. ["table2:4x1x1"] *)
  jb_key : Autocfd_obs.Json.t;
      (** canonical cache key: [{"code": version, "spec": ...}] *)
  jb_run : unit -> Autocfd_obs.Json.t;
      (** compute the result; must be self-contained (no shared mutable
          state) — it may execute on any worker domain of a {!Pool} *)
  jb_spec : Autocfd_obs.Json.t option;
      (** a self-contained execution spec equivalent to [jb_run], for
          jobs that can run in another {e process}: a {!Fabric} worker
          receives the spec over the wire and resolves it (for the
          experiment sweeps, through [Experiments.exec_spec]).  [None]
          pins the job to the submitting process. *)
}

val code_version : string
(** The stamp baked into every key made by {!make}.  Bump it whenever a
    change alters what any cached result would contain — every previously
    cached entry then misses and is recomputed. *)

val make :
  ?version:string ->
  ?spec:Autocfd_obs.Json.t ->
  label:string ->
  key:Autocfd_obs.Json.t ->
  (unit -> Autocfd_obs.Json.t) ->
  t
(** [make ~label ~key run] wraps [key] together with the code-version
    stamp ([?version], default {!code_version}).  [spec] (default: none)
    makes the job eligible for remote execution — it must describe the
    computation completely, and resolving it must produce exactly what
    [run] returns. *)

val fnv64 : string -> int64
(** FNV-1a 64-bit hash of a string; also the checksum of a fabric
    {!Frame}. *)

val digest : string -> string
(** {!fnv64} as 16 lowercase hex digits — used for program-source
    digests inside keys and for cache file names. *)

val cache_name : t -> string
(** The job's content address: [digest] of the canonical key text. *)
