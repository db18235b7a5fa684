(** Structured fault taxonomy for the serving layer.

    Every service-reachable failure is classified into one of seven
    kinds so that callers — and the {!Resilience} machinery — can decide
    mechanically whether to retry, degrade, or report:

    {v
    kind               retryable  degradable  typical source
    -----------------  ---------  ----------  -------------------------------
    Invalid_request    no         no          bad scale/config, parse errors
    Unknown_workload   no         no          name not in Workloads.Registry
    Deadline_exceeded  no         yes         per-request budget ran out
    Worker_crashed     no         yes         a pool domain died mid-task
    Transient          yes        yes         injected/externally flaky step
    Internal           no         yes         invariant breach in the pipeline
    Overload           yes        no          server shed the request (Net)
    v}

    [retryable] faults are worth re-running unchanged (bounded retry with
    backoff); [degradable] faults still admit a useful answer — the cheap
    fallback mapping of {!Baselines.Fallback} — because the request itself
    was well-formed. Caller errors ([Invalid_request],
    [Unknown_workload]) are neither: no amount of retrying fixes them and
    no fallback mapping exists for a workload we cannot even synthesise.
    [Overload] is the odd one out: the request was fine, the {e server}
    was not — [Net.Server] answers it without running (or degrading)
    anything, because the whole point of shedding is that a rejection
    costs microseconds. It is retryable {e by the client, after backing
    off}, ideally against another replica; the server itself never
    retries it.

    {b Raise-site audit} (PR 2). Of the ~89 [failwith]/[invalid_arg]/
    [raise] sites in [lib/], the service-reachable ones funnel through
    {!Api}'s per-request boundary and are converted here via {!of_exn}:
    [Invalid_argument] from workload synthesis, layout, tracing or the
    mapper means the request asked for something impossible (e.g. a scale
    so small a nest is empty) and becomes [Invalid_request]; everything
    else becomes [Internal]. The remaining sites are internal contracts
    that no request can trigger — e.g. [Machine.Addr_map.create] re-raising
    on an invalid config ({!Api} validates the config first),
    [Solution_cache.create: capacity < 1] and [Pool.create: negative
    num_domains] (construction-time caller contracts, not request data),
    and the [assert false] arms in [Api.submit_batch] (every hash in the
    todo list is, by construction, in the solved table). Those keep their
    exceptions and are documented in place.

    {b Thread safety}: faults are immutable values; every function in
    this interface is pure and safe to call from concurrent
    {!Par.Pool} workers without synchronisation. *)

type t =
  | Invalid_request of string
      (** The request itself is malformed (bad scale, bad machine
          geometry, unparseable JSON line). *)
  | Unknown_workload of string
      (** The named workload is not in the registry. *)
  | Deadline_exceeded of { phase : string; budget_ms : float }
      (** The per-request budget ran out; [phase] is the pipeline phase
          boundary at which the overrun was observed. The payload
          deliberately excludes the measured elapsed time so that
          responses stay byte-deterministic. *)
  | Worker_crashed of string
      (** The pool domain running the task died mid-task. *)
  | Transient of string
      (** A transient fault: retrying the same request may succeed. *)
  | Internal of string
      (** An internal invariant failed; the request was well-formed. *)
  | Overload of { scope : string; limit : int }
      (** The server shed this request under load instead of running
          it. [scope] names the exhausted budget — ["inflight"] (the
          admission budget of [Net.Admission]), ["connections"] (the
          acceptor's connection cap) or ["draining"] (the server is
          shutting down) — and [limit] its configured size. The
          payload deliberately excludes momentary occupancy so
          responses stay byte-deterministic. *)

exception Error of t
(** Carrier for aborting a pipeline run from a phase hook or injection
    point; caught at the {!Api} per-request boundary. *)

exception Crash of string
(** Simulated death of the executing domain. Unlike {!Error}, [Crash]
    deliberately escapes the per-task handler so that {!Par.Pool} exercises
    its crash-isolation path (fail the task, respawn the worker). *)

val retryable : t -> bool
val degradable : t -> bool

val kind : t -> string
(** Stable lower-snake identifier ("invalid_request", ...). *)

val message : t -> string

val to_string : t -> string
(** ["kind: message"], deterministic. *)

val to_json : t -> Json.t
(** [{"kind": .., "message": ..}]; [Deadline_exceeded] additionally
    carries ["phase"] and ["budget_ms"], [Overload] carries ["scope"],
    ["limit"] and ["retryable": true] (the client's back-off cue).
    Deterministic. *)

val of_exn : exn -> t
(** Classify an exception escaping the pipeline: [Error f] unwraps to
    [f], [Crash m] to [Worker_crashed m], [Invalid_argument m] to
    [Invalid_request], and anything else to [Internal]. *)

val pp : Format.formatter -> t -> unit
