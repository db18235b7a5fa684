(** Reproduction drivers: one function per table/figure of the paper's
    evaluation (Section 5). Each prints a plain-text table whose rows
    correspond to the paper's bars/series; EXPERIMENTS.md records the
    paper-reported values next to ours.

    [scale] scales every benchmark's input size (1.0 = the calibrated
    defaults); the sweep figures run on a fixed representative subset
    of applications to bound simulation time, as noted per figure.

    {b Thread safety}: each driver prints to stdout and must be run
    from a single thread; drivers share no mutable state with each
    other, so distinct figures may run in parallel from {!Par.Pool}
    workers only if their output is serialised by the caller. *)

type fig = {
  id : string;
  title : string;
  run : scale:float -> unit;
}

val table3 : scale:float -> unit
(** Benchmark properties: nests, arrays, iteration sets, fraction of
    sets moved by load balancing. *)

val table4 : scale:float -> unit
(** The simulated system setup. *)

val fig2 : scale:float -> unit
(** Potential execution-time improvement with an ideal (zero-latency)
    network, private and shared LLCs. *)

val fig7 : scale:float -> unit
(** Private LLC: (a) MAI estimation error, (b) network-latency and
    execution-time reductions, (c) runtime overheads. *)

val fig8 : scale:float -> unit
(** Shared LLC: (a) MAI and CAI errors, (b) reductions, (c)
    overheads. *)

val fig9 : scale:float -> unit
(** Sensitivity to mesh size, LLC capacity, page size and MC
    placement. *)

val fig10 : scale:float -> unit
(** Sensitivity to the number of regions and the iteration-set size. *)

val fig11 : scale:float -> unit
(** Physical-address distribution combinations over (memory banks,
    cache banks). *)

val fig12 : scale:float -> unit
(** DDR-4 instead of DDR-3. *)

val fig13 : scale:float -> unit
(** Comparison and composition with data-layout optimisation (DO). *)

val fig14 : scale:float -> unit
(** Comparison with hardware-based computation placement. *)

val fig15 : scale:float -> unit
(** Perfect MAI/CAI/cache-miss estimation (optimality study). *)

val fig16 : scale:float -> unit
(** KNL-style cluster modes: all-to-all, quadrant, SNC-4, original vs
    optimised. *)

val fig17 : scale:float -> unit
(** KNL-style cluster modes with 2x and 4x input sizes. *)

val multiprog : scale:float -> unit
(** Four multi-threaded applications co-running. *)

val ablations : scale:float -> unit
(** Design-choice ablations beyond the paper: load balancing off, fixed
    α weights, MAC tolerance settings. *)

val all : fig list
(** Every driver, in paper order. *)

val find : string -> fig option
