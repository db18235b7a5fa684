(** The discrete-event manycore simulator.

    The engine replays one or more *jobs* (programs with schedules) on
    the configured machine. Cores execute their assigned iteration sets
    in order; private-level hits are batched at fixed latencies, and
    every transaction that touches a shared resource (NoC link, S-NUCA
    bank, MC/DRAM) is sequenced through a global event heap so that
    contention is resolved in global-time order. Parallel nests are
    barrier-synchronised per job, and a job's timing loop re-runs its
    nests [steps] times with warm caches — the structure the
    inspector–executor scheme relies on.

    Latency model per L1 miss:
    - private LLC: local bank probe; on a bank miss, request packet
      core→MC, DRAM service, data packet MC→core (plus fire-and-forget
      dirty writebacks);
    - shared LLC (S-NUCA): request core→home bank, bank port
      serialisation, then either data bank→core (hit) or request
      bank→MC, DRAM, data MC→bank→core (miss).

    The per-access and per-event path allocates nothing (at most 4
    minor-heap words per simulated access over a whole run, setup
    included, is a tested budget). Equal-time events pop in the
    event heap's fixed tie order, and that order is part of the result:
    it decides which of two simultaneous packets queues behind the
    other.

    {b Thread safety}: not thread-safe. An engine run owns all of its
    simulation state (caches, heap, network, DRAM, stats); the service
    layer runs one simulation per request and never shares a run
    across domains. *)

type job = {
  trace : Ir.Trace.t;
  schedule_of_step : int -> Schedule.t;
      (** schedule used for timing-loop step [k]; an inspector–executor
          job returns the default schedule for step 0 and the optimised
          one afterwards *)
  steps : int;  (** timing-loop trip count *)
  cores : int array;  (** cores this job may use *)
  step_overhead : int -> int;
      (** extra cycles charged after step [k] completes (inspector
          analysis and remapping cost); return 0 for none *)
}

val job :
  ?steps:int ->
  ?cores:int array ->
  ?step_overhead:(int -> int) ->
  trace:Ir.Trace.t ->
  schedule_of_step:(int -> Schedule.t) ->
  unit ->
  job
(** [steps] defaults to the program's [time_steps]; [cores] to all
    cores of the configuration at {!run} time. *)

type result = {
  stats : Stats.t;
  job_finish : int array;  (** completion cycle of each job *)
  net_latency_histogram : int array;
      (** bucket [k] counts packets with latency in [2^k, 2^(k+1)) *)
  link_busy : int array;  (** cumulative occupancy per directed link *)
  events : int;
      (** events popped from the global heap: core resumptions plus
          deferred miss stages — the engine's unit of bookkeeping work *)
}

val run :
  ?ideal_network:bool ->
  ?page_table:Mem.Page_table.t ->
  Config.t ->
  job list ->
  result
(** Simulates all jobs concurrently from cycle 0. [ideal_network]
    makes every packet free — the paper's Figure 2 bound. Raises
    [Invalid_argument] on an invalid configuration, overlapping job
    core sets, or a schedule naming an out-of-range core. *)

val run_single :
  ?ideal_network:bool ->
  ?page_table:Mem.Page_table.t ->
  Config.t ->
  trace:Ir.Trace.t ->
  schedule:Schedule.t ->
  unit ->
  result
(** One job, one fixed schedule, the program's own [time_steps]. *)
