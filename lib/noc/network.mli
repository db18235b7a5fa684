(** Contention-aware network state.

    The network models wormhole-switched X-Y routing at packet
    granularity: a packet traversing a link occupies it for [flits]
    cycles; a later packet wanting the same link queues until the link
    frees. Each hop additionally pays the router pipeline overhead plus
    one link-traversal cycle. This captures the two first-order effects
    the paper optimises: distance travelled and congestion
    (Section 3.9).

    An [ideal] network transfers every packet in zero cycles — the
    paper's Figure 2 upper bound.

    {b Thread safety}: not thread-safe. Link occupancy is mutated in
    place as packets are routed; a network belongs to the single
    engine run that created it. *)

type t

val create : ?ideal:bool -> router_overhead:int -> Topology.t -> t
(** [create ~router_overhead topo] builds an idle network.
    [router_overhead] is the per-hop router pipeline delay in cycles
    (Table 4 uses 3). It also precomputes every (src, dst) route from
    {!Routing.iter_path} into one flat link table —
    [nodes^2 + 1] offsets plus the summed path lengths, about 7k ints
    on the default 6x6 mesh and 30k on 8x8 — which {!send} walks. *)

val topology : t -> Topology.t

val is_ideal : t -> bool

val send : t -> now:int -> src:int -> dst:int -> flits:int -> int
(** [send t ~now ~src ~dst ~flits] injects a packet at cycle [now] and
    returns its arrival cycle at [dst]. Link occupancy state is updated;
    statistics accumulate the packet's total latency and its queueing
    component. [src = dst] transfers instantly. Allocates nothing.
    Raises [Invalid_argument] for a node out of range. *)

val reset : t -> unit
(** Clears link occupancy and statistics. *)

(** {2 Statistics} *)

val total_latency : t -> int
(** Sum over packets of (arrival - injection) cycles. *)

val total_queueing : t -> int
(** Portion of {!total_latency} spent waiting for busy links. *)

val packets_sent : t -> int

val total_hops : t -> int

val avg_latency : t -> float
(** Mean packet latency in cycles; [0.] if nothing was sent. *)

val latency_histogram : t -> int array
(** Per-packet latency histogram: bucket [k] counts packets with
    latency in [2^k, 2^(k+1)). *)

val link_busy : t -> int array
(** Cumulative occupancy cycles per directed link id. *)
