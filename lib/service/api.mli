(** The service front-end: submit mapping requests, get responses.

    An [Api.t] owns a {!Solution_cache}, a {!Par.Pool}, a
    {!Resilience.policy} and (for chaos testing) a
    {!Fault_injection.plan}. {!submit_batch} looks every request up in
    the cache, deduplicates the misses by canonical hash, fans the
    unique computations across the pool's domains — each worker
    independently runs workload synthesis, trace compilation and the
    full analyse→assign→balance pipeline ({!Locmap.Mapper.map}) under
    the resilience wrapper (deadline checks at phase boundaries,
    bounded retry with deterministic backoff for transient faults) —
    stores the solutions, and assembles responses in submission order.

    {b Fault handling}: every failure is a structured {!Fault.t}. A
    worker-domain death ({!Fault.Crash}) fails only its own task — the
    pool records the slot, respawns the worker, and the batch drains.
    With [resilience.degrade = true], degradable faults (deadline,
    crash, exhausted retries, internal) are answered with the cheap
    fallback mapping ([Baselines.Fallback]), flagged
    [degraded = true] and carrying the triggering fault, so callers
    always get {e a} mapping for a well-formed request. Degraded
    solutions are {e never} cached — the fallback must not shadow the
    real solution once the fault clears. Caller errors
    ([Invalid_request], [Unknown_workload]) are never degraded, never
    cached, and never take down the batch.

    {b Determinism}: the mapper is deterministic for a given request,
    cache and degradation passes run on the submitting domain in
    submission order, fault-injection decisions are pure functions of
    [(seed, site, key, index, attempt)], and workers never share
    mutable state; so a batch's responses — including [degraded] flags
    and fault payloads — are byte-identical whether the pool runs 0 or
    8 worker domains. [test/test_resilience.ml] asserts this under
    active fault injection.

    {b Observability}: [create ?metrics] instruments the whole stack
    behind this front-end — the cache ([locmap_cache_*]), the pool
    ([locmap_pool_*]) and the serving layer itself:
    [locmap_requests_served_total], [locmap_requests_computed_total],
    [locmap_responses_error_total], [locmap_responses_degraded_total],
    [locmap_retries_total], [locmap_faults_total{kind}] (counted
    {e before} degradation, so masked deadline expiries and crashes
    stay visible), the [locmap_request_ms] latency histogram and
    [locmap_mapper_phase_ms{phase}] per-pipeline-phase histograms.
    [create ?tracer] opens one root span per {e computed} request
    (trace id = the request hash's first 16 hex chars), a child span
    per resilience attempt, and a ["phase.*"] span per mapper phase.
    Instrumentation never changes responses: in the tracer's
    deterministic-ID mode the exported trace of a batch is itself
    byte-identical at any domain count (trace ids come from request
    hashes, spans within a trace are created by the one worker
    computing it, and the export is sorted). Metrics snapshots are
    {e not} byte-stable — they measure real time and real
    interleavings. *)

type t

type stats = {
  served : int;  (** requests answered (ok + error) since creation *)
  errors : int;  (** error responses among them *)
  computed : int;  (** pipeline executions (cache misses actually run) *)
  degraded : int;  (** fallback-mapping responses served *)
  retried : int;  (** retry attempts spent on transient faults *)
  crashes : int;  (** worker domains that died (and were replaced) *)
  cache : Solution_cache.counters;
  cache_entries : int;
  cache_capacity : int;
  num_domains : int;  (** worker domains in the pool *)
}

val create :
  ?cache_capacity:int ->
  ?num_domains:int ->
  ?resilience:Resilience.policy ->
  ?injection:Fault_injection.plan ->
  ?metrics:Obs.Metrics.t ->
  ?tracer:Obs.Trace.t ->
  unit ->
  t
(** [cache_capacity] defaults to 512 solutions; [num_domains] to 1
    (inline execution, no spawned domains); [resilience] to
    {!Resilience.default} (2 retries, no deadline, no degradation);
    [injection] to {!Fault_injection.none}. [metrics] and [tracer]
    (both off by default) enable the instrumentation described above;
    the caller keeps the handles and drains them
    ({!Obs.Metrics.snapshot}, {!Obs.Trace.to_jsonl}). *)

val submit : t -> Request.t -> Response.t
(** Single-request convenience: a one-element {!submit_batch} (the
    response's [id] is 0). *)

val submit_batch : t -> Request.t array -> Response.t array
(** Responses in submission order, [id] = submission index. *)

val fallback_response :
  t -> id:int -> fault:Fault.t -> Request.t -> Response.t option
(** A degraded response from the cheap fallback mapping, computed
    inline on the calling domain — no pool submission, no admission
    slot, no cache write (degraded payloads must never shadow real
    solutions). This is the brownout path of [Net.Server]: when the
    circuit breaker is open, cache misses are answered with this
    instead of fresh compute. [fault] is recorded as the degradation
    reason inside the payload (typically [Fault.Overload] with scope
    ["brownout"]). [None] when the fallback itself cannot be built
    (unknown workload, invalid machine) — the caller sheds instead.
    Counts toward [served]/[degraded] in {!stats}. *)

val stats : t -> stats

val cache : t -> Response.payload Solution_cache.t
(** The underlying cache (shared, thread-safe). *)

val resilience : t -> Resilience.policy

val shutdown : t -> unit
(** Joins the pool's domains. The cache stays readable; further
    submissions raise. *)

val pp_stats : Format.formatter -> stats -> unit
