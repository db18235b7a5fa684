(** Plain-text tables and aggregate statistics for the experiment
    reports.

    {b Thread safety}: the statistics helpers are pure; {!table}
    prints to stdout and concurrent callers (e.g. {!Par.Pool} workers)
    must serialise their own output. *)

val table :
  title:string -> headers:string list -> string list list -> unit
(** Prints an aligned table on stdout. *)

val geomean_ratio : float list -> float
(** Geometric mean of positive ratios ([opt/base]); non-positive
    entries are clamped to a small epsilon. Empty list is 1. *)

val geomean_reduction : float list -> float
(** Aggregates percentage reductions the way the paper's GEOMEAN bars
    do: converts to ratios, takes the geometric mean, converts back to
    a percentage. *)

val mean : float list -> float

val pct : float -> string
(** Formats a percentage with one decimal. *)

val f3 : float -> string
(** Three-decimal float. *)
