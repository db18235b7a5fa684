(** Line-granular memo of the address map, in closed form.

    Both summary-construction paths ask, for every access, where the
    line lives: its physical line, its home LLC bank (and that bank's
    region) and its MC. Under the paper's OS contract the interleaving
    bits survive translation (Section 4), so the location is a periodic
    function of the physical line index, and
    {!Machine.Addr_map.period_lines} states the period P of every
    structured map. This module evaluates the map once per line of
    {e one period} — a table of P packed (mc, region, node) records —
    and resolves line [l] through [l mod P]. The build costs O(P)
    evaluations whatever the footprint (P is 1152 lines on the default
    machine), and the table stays cache-resident.

    A map without a period (all-to-all hashing, SNC-4 with per-page
    domains) degenerates to a table over the footprint's lines, built
    and read through the same code. Remapped pages change only which
    physical line a virtual line reads: {!create} translates each
    footprint page once into a page array, and lookups go through it
    to the same table.

    Soundness: translation is page-granular and every location function
    depends on the address only through its line (and page), so a
    per-line table is exact whenever [l2_line] divides [page_size] —
    guaranteed by every validated config. A degenerate hand-built
    config, an aperiodic map whose footprint exceeds the table cap, and
    any address the table does not cover (an aperiodic map's line past
    the footprint, a remapped address outside it) fall back to direct
    {!Machine.Addr_map} calls, so answers are {e always} identical to
    the direct path (the differential tests check this on every
    registry footprint and on random configs).

    {b Thread safety}: the tables are built eagerly in {!create} and
    never mutated afterwards, so a memo may be shared freely across
    domains — the domain-parallel analysis reads one memo from all
    shards. The optional fallback counter is a domain-safe sharded
    {!Obs.Metrics.counter}. *)

type t

val create :
  ?metrics:Obs.Metrics.t ->
  Machine.Config.t ->
  Machine.Addr_map.t ->
  Ir.Layout.t ->
  t
(** Builds the location table: one address-map evaluation per line of
    the map's period (of the footprint for an aperiodic map), plus one
    translation per footprint page when pages are remapped. [metrics]
    registers [locmap_line_memo_fallback_lookups_total], counting
    lookups that called the address map directly (degenerate config,
    or an address the table does not cover); the table-hit path is
    never instrumented. Together with [locmap_cme_accesses_total] this
    yields the memo hit rate. *)

val addr_map : t -> Machine.Addr_map.t

val regions : t -> Region.t

val line_size : t -> int
(** The memo granularity: the config's [l2_line]. *)

val line_shift : t -> int
(** log2 of {!line_size} when the memo is {!memoized} (the line size is
    then a power of two); 0 for degenerate memos. Lets hot callers
    shift instead of divide. *)

val num_lines : t -> int
(** Lines of the layout's footprint. *)

val lines_evaluated : t -> int
(** Address-map evaluations {!create} spent on the table: the map's
    period for a structured map, independent of the footprint; the
    footprint's lines for an aperiodic map; 0 when not {!memoized}. *)

val memoized : t -> bool
(** Whether the table was built (false only for degenerate configs or
    an aperiodic map whose footprint exceeds the table cap — the
    fallback still answers identically, just without the speedup). *)

val translate : t -> int -> int
(** Virtual-to-physical translation of any address, via the memo. *)

val bank_node_of : t -> int -> int
(** Home-bank node of a {e virtual} address (the memo folds the
    translate step in). *)

val region_of : t -> int -> int
(** Region of the home bank of a virtual address. *)

val mc_of : t -> int -> int
(** MC serving a virtual address. *)

val loc_of : t -> int -> int
(** The packed (mc, region, node) record of a virtual address — the
    single array load the hot loops use; decode with the accessors
    below. *)

val node_of_loc : int -> int

val region_of_loc : int -> int

val mc_of_loc : int -> int

val loc_of_line : t -> int -> int
(** Packed location of line index [l] (i.e. of address
    [l * line_size]) — the symbolic tier's unit of lookup. *)

val identity_translation : t -> bool
(** True when virtual-to-physical translation is the identity (the page
    table held no remapped page when the address map was created) — the
    observed replay skips {!translate} entirely then. *)

val num_mcs : t -> int

val num_regions : t -> int

(** {2 Location prefix tables}

    The symbolic CME tier reduces an iteration set's misses and hits to
    address arithmetic progressions; resolving one progression needs
    the per-MC and per-region {e counts} of a contiguous line range,
    not each line's location. {!create} builds prefix sums over the
    location table when it has at most 2^16 lines — always for a
    structured map on a realistic mesh; an aperiodic map only when its
    footprint is that small and no page is remapped. A count over a range is then whole-table
    totals plus a prefix difference, one per physically contiguous run
    of the range (a single run without remapped pages). Without the
    tables, {!prefix_available} is false and callers enumerate lines
    through {!loc_of_line} instead. *)

val prefix_available : t -> bool

val add_mc_line_counts :
  t -> lo:int -> hi:int -> weight:int -> int array -> unit
(** [add_mc_line_counts t ~lo ~hi ~weight into] adds
    [weight * (lines of line-index range [lo, hi) served by MC m)] into
    [into.(m)], for every MC — O(num_mcs), independent of the range
    length (per run, when pages are remapped). Raises
    [Invalid_argument] when no prefix is available or the range leaves
    the footprint. *)

val add_region_line_counts :
  t -> lo:int -> hi:int -> weight:int -> int array -> unit
(** Same, per home-bank region. *)
