(** The single source of truth for physical location of data.

    [Addr_map] answers, for any address, which MC serves its page and
    which LLC bank homes its line, under the configuration's
    data-distribution policy (including the KNL cluster modes). It is
    shared by the simulator, the compile-time analysis and the runtime
    inspector — this *is* the "architecture information exposed to the
    compiler" of the paper's Figure 4, combined with the OS guarantee
    that virtual addresses expose the interleaving bits (Section 4). *)

type t

val create : Config.t -> Mem.Page_table.t -> t

val config : t -> Config.t

val topology : t -> Noc.Topology.t

val translate : t -> int -> int
(** Virtual-to-physical translation (identity unless pages were
    remapped after creation — re-create the map after remapping). *)

val identity_translation : t -> bool
(** True when the page table held no remapped page at creation, so
    {!translate} is the identity for every address. *)

val mc_of : t -> int -> int
(** MC id serving the page of a *physical* address. *)

val mc_node : t -> int -> int
(** Mesh node an MC attaches to. *)

val bank_node_of : t -> int -> int
(** Node id of the shared-LLC home bank of a *physical* address. *)

val period_lines : t -> int option
(** The period, in [l2_line]-sized lines, of the location functions
    over the physical line index: for every physical address [pa],
    [pa] and [pa + p * l2_line] have the same {!mc_of} and
    {!bank_node_of}. Derived from the interleaving units, never
    verified by sampling:
    - mesh-default and quadrant:
      [lcm (mem_unit_lines * num_mcs) (llc_unit_lines * num_nodes)],
      where a unit is one line or one page depending on the grain;
    - SNC-4: [lcm (4 * page_lines) (lcm of the quadrant sizes)], but
      only while no page has a domain set;
    - all-to-all hashing: [None].

    Also [None] when a line straddles pages ([l2_line] does not divide
    [page_size]). The page table's domains are read at call time. *)

val num_mcs : t -> int

val num_nodes : t -> int

val quadrant_of_node : t -> int -> int
(** 0..3: NW, NE, SW, SE quadrant of the mesh. *)

val mc_of_quadrant : t -> int -> int
(** The MC nearest to a quadrant's centre. *)
