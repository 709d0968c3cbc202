(** Chrome [trace_event] export: the traced run as a JSON document loadable
    in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.

    Events are grouped into up to three Chrome "processes" (lanes):

    - pid 0 — the simulated cluster: one thread per rank (tid = rank),
      virtual-time timestamps in microseconds.  Slice categories:
      [compute], [comm], [blocked], [collective], [phase] (the combined
      synchronization points, enclosing their constituent slices),
      [fault], [proto] and [checkpoint].
    - pid 1 — the sweep scheduler: one thread per worker domain, slices
      on host wall-clock (category [sched]).
    - pid 2 — kernel self-time summaries: one slice per field-loop nest
      per rank, whose duration is the nest's self compute time on the
      virtual clock (category [kernel]).
    - pid 3 — the real shared-memory Domains engine: one thread per
      domain rank, every slice timed on the host wall clock
      ([Trace.event.ev_wall]); phases, barrier/recv blocked intervals
      and per-nest kernel summaries all live in this lane so the
      wall-clock timeline never interleaves with virtual-clock lanes.

    The scheduler, kernel and domains lanes are emitted only when the
    trace holds such events. *)

val to_string : Trace.t -> string
