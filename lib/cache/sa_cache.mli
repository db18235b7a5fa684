(** Set-associative, write-back, write-allocate cache with LRU
    replacement.

    One instance models an L1 data cache or one LLC (L2) bank. The
    implementation is imperative and allocation-free on the access path
    — it sits in the innermost loop of the simulator.

    {b Thread safety}: not thread-safe. A cache is private mutable
    state of the engine run that created it; every simulation builds
    its own instances and keeps them domain-confined. *)

type t

type result =
  | Hit
  | Miss of {
      victim_line_addr : int;
          (** base address of the evicted line, [-1] if the victim way
              was invalid *)
      victim_dirty : bool;
          (** whether the eviction must write back to memory *)
    }

val create : size:int -> assoc:int -> line_size:int -> unit -> t
(** [create ~size ~assoc ~line_size ()] builds an empty cache of [size]
    bytes, [assoc] ways and [line_size]-byte lines. Raises
    [Invalid_argument] if the geometry is inconsistent (size not
    divisible into at least one set of [assoc] lines). *)

val access : t -> addr:int -> write:bool -> result
(** [access t ~addr ~write] looks up the line containing [addr],
    installing it on a miss (write-allocate) and marking it dirty on a
    write. LRU state is updated. A thin wrapper over {!access_hit}
    that packs the victim into the result. *)

val access_hit : t -> addr:int -> write:bool -> bool
(** The lookup itself: [true] on a hit, [false] on a miss, with the
    same state transitions as {!access} and {e no allocation}. A hit
    reads only the set's tags; the LRU stamps are scanned only on a
    miss to choose the victim (the last invalid way, else the first
    least-recently used one), which {!victim_line_addr} and
    {!victim_dirty} then report. The simulator and the analysis replay
    call this in their inner loops. *)

val victim_line_addr : t -> int
(** Base address of the line the most recent miss evicted, [-1] if it
    filled an invalid way (or no access has missed yet). Unchanged by a
    hit. *)

val victim_dirty : t -> bool
(** Whether the most recent miss evicted a dirty line — a writeback the
    caller must send. Unchanged by a hit. *)

val probe : t -> addr:int -> bool
(** [probe t ~addr] is [true] iff the line is resident. Does not update
    LRU or statistics — for inspection only. *)

val invalidate : t -> addr:int -> unit
(** Drops the line containing [addr] if resident (dirtiness is
    discarded; the caller is responsible for any writeback). *)

val line_size : t -> int

val num_sets : t -> int

val assoc : t -> int

val capacity : t -> int

val reset : t -> unit
(** Empties the cache and clears statistics. *)

(** {2 Statistics} *)

val hits : t -> int

val misses : t -> int

val writebacks : t -> int
(** Dirty evictions performed so far. *)

val accesses : t -> int

val hit_rate : t -> float
