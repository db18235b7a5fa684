(** Mapping responses.

    A response pairs a batch-local request id and the request's
    canonical hash with either a {!payload} — the mapper's result,
    reduced to the serializable facts a client needs to apply the
    mapping — or a structured {!Fault.t}. Payloads are immutable and
    shared: {!Solution_cache} hands the same payload to every request
    with the same hash, and {!to_string} prints deterministically, so
    equal results serialize byte-identically regardless of which domain
    (or which cache hit) produced them.

    A payload with [degraded = true] came from the cheap fallback
    mapping ([Baselines.Fallback]) after the full pipeline failed;
    [fault] then records what triggered the degradation. Degraded
    payloads are never cached (see {!Api}).

    {b Thread safety}: responses and payloads are immutable, so
    sharing one payload across requests — and across concurrent
    {!Par.Pool} workers — needs no synchronisation. *)

type payload = {
  workload : string;
  num_sets : int;  (** iteration sets in the schedule *)
  estimation : string;
      (** estimation mode actually used; ["fallback"] when degraded *)
  moved_fraction : float;  (** sets moved by load balancing *)
  alpha_mean : float;
  mai_error : float;
  cai_error : float;
  overhead_cycles : int;
  region_of_set : int array;  (** post-balance region per set *)
  core_of : int array;  (** chosen core per set — the mapping itself *)
  degraded : bool;  (** [true] iff this is a fallback mapping *)
  fault : Fault.t option;  (** the fault that triggered degradation *)
}

type t = {
  id : int;  (** submission index within the batch *)
  hash : string;  (** the request's {!Request.hash} *)
  result : (payload, Fault.t) result;
}

val of_info : id:int -> hash:string -> workload:string -> Locmap.Mapper.info -> t
(** Projects a mapper result into a response payload. *)

val of_fallback :
  id:int -> hash:string -> workload:string -> fault:Fault.t ->
  Baselines.Fallback.t -> t
(** A degraded response: the fallback mapping, [degraded = true], and
    the triggering fault. *)

val error : id:int -> hash:string -> Fault.t -> t

val is_ok : t -> bool

val is_degraded : t -> bool
(** [true] for a successful but degraded (fallback) response. *)

val to_json : t -> Json.t
(** [{"id": .., "hash": .., "ok": true, "result": {.., "degraded": b}}]
    on success (plus ["fault"] when degraded),
    [{"id": .., "hash": .., "ok": false, "error": {"kind": ..,
    "message": ..}}] on failure. *)

val to_string : t -> string
(** One JSON line (no trailing newline), deterministic. *)
