(** Deterministic expansion of programs into address streams.

    [create] compiles a program against a memory layout: every reference
    is lowered to precomputed base/stride form so address generation is
    a few integer operations per access. Both the compile-time analysis
    (CME, affinity construction), the runtime inspector, and the
    simulator replay exactly the same stream, which is what makes
    compile-time MAI/CAI estimates comparable to observed ones.

    Addresses are *virtual*; callers translate through a
    {!Mem.Page_table} where needed. *)

type t

val create : Program.t -> Layout.t -> t
(** Compiles all nests. Raises [Invalid_argument] if a reference's
    index table or array cannot be resolved (programs built with
    {!Program.create} always can), or if an affine reference can
    provably range outside its array over the loop and timing-step
    bounds. *)

val program : t -> Program.t

val layout : t -> Layout.t

val num_nests : t -> int

val iterations : t -> nest:int -> int

val accesses_per_par_iter : t -> nest:int -> int

val compute_cycles_per_par_iter : t -> nest:int -> int

val step_var : string
(** The reserved timing-step variable name (["t"]): references may use
    it to address per-step data slices; it is bound to the timing-loop
    index during expansion. *)

val iter_range :
  ?step:int ->
  t ->
  nest:int ->
  lo:int ->
  hi:int ->
  (addr:int -> write:bool -> unit) ->
  unit
(** [iter_range t ~nest ~lo ~hi f] calls [f] for every access issued by
    parallel iterations [lo, hi) of [nest], in program order, with the
    step variable bound to [step] (default 0). Raises
    [Invalid_argument] on a range outside the nest's iteration space,
    or if an indirection reads outside its index table. *)

val fill_range :
  ?step:int -> t -> nest:int -> lo:int -> hi:int -> buf:int array -> int
(** [fill_range t ~nest ~lo ~hi ~buf] expands parallel iterations
    [lo, hi) of [nest] into [buf] — the same
    [(addr lsl 1) lor write_bit] encoding as {!fill_iteration_s}, in
    exactly the order {!iter_range} emits — and returns the access
    count ([(hi - lo) * accesses_per_par_iter]). [buf] must hold at
    least that many elements. The flat buffer lets hot consumers (the
    analysis fast path) iterate a chunk of the trace without paying a
    closure call per access. *)

val iter_body_periodic :
  ?step:int ->
  t ->
  nest:int ->
  body:int ->
  first:int ->
  hi:int ->
  period:int ->
  (exec:int -> addr:int -> unit) ->
  unit
(** [iter_body_periodic t ~nest ~body ~first ~hi ~period f] calls [f]
    for the accesses of body reference [body] (its index in the nest's
    body list) whose per-reference execution counter is [first],
    [first + period], [first + 2*period], ... strictly below [hi].
    Execution counters number a single reference's executions in
    program order: one per complete inner-iteration combination,
    [inner_trip] of them per parallel iteration — exactly the counter
    the CME classifier keys its miss periods on. [f] receives the
    execution counter and the access's virtual address.

    This is the sparse complement of {!fill_range}: when only every
    [period]-th execution of a reference needs an address (because the
    rest are classified L1 hits arithmetically), visiting just those is
    asymptotically cheaper than expanding the whole stream. Raises
    [Invalid_argument] on a bad body index, non-positive period,
    negative [first], or [hi] beyond the nest's execution count. *)

val iter_body_line_blocks :
  ?step:int ->
  t ->
  nest:int ->
  body:int ->
  lo:int ->
  hi:int ->
  line:int ->
  (addr:int -> count:int -> unit) ->
  unit
(** [iter_body_line_blocks t ~nest ~body ~lo ~hi ~line f] visits every
    execution of body reference [body] over parallel iterations
    [lo, hi), grouped into blocks of consecutive parallel iterations
    whose accesses fall on the same [line]-byte cache line for a fixed
    inner-iteration combination; [f] receives the block's first address
    and its execution count. Affine references advance by a fixed byte
    stride per parallel iteration, so block lengths come from one
    boundary computation — small strides (unit-stride parallel loops)
    collapse [line / stride] executions into one visit. Indirect
    references degrade to one-execution blocks.

    {b The visit order is not program order} (inner combinations are
    walked outermost, parallel iterations innermost): callers must only
    aggregate order-independent counts from it, as the CME fast path
    does for references whose every execution misses. Raises
    [Invalid_argument] on a bad body index, bad range, or non-positive
    line size. *)

val decode_addr : int -> int

val decode_write : int -> bool

(** {2 Compiled-reference introspection}

    The symbolic CME tier ({!Cme.Symbolic}) derives whole-nest miss/hit
    address progressions in closed form. It needs each affine
    reference's compiled address function — the byte-level base and
    per-variable byte coefficients {!create} lowered it to — rather
    than the source AST, so the algebra matches the expanded stream
    exactly (same layout bases, same element scaling). *)

type direct = {
  dbase : int;  (** array base + constant offset, bytes *)
  dcoeffs : int array;
      (** per loop variable, bytes: position 0 is the timing step
          {!step_var}, 1 the parallel variable, then the inner loops
          outermost first — the order {!iter_range} binds them in *)
  dwrite : bool;
}

val direct_ref : t -> nest:int -> body:int -> direct option
(** The compiled form of body reference [body] of [nest], or [None] for
    an index-array (irregular) reference — those have no affine closed
    form and stay on the trace-walking tiers. The coefficient array is
    a fresh copy. Raises [Invalid_argument] on a bad body index. *)

val num_body_refs : t -> nest:int -> int

val par_loop : t -> nest:int -> Loop_nest.loop

val inner_loops : t -> nest:int -> Loop_nest.loop array
(** Inner loops of a nest, outermost first (fresh copy) — the trip
    counts and steps the symbolic tier folds into its progressions. *)

(** {2 Preallocated scratch}

    {!iter_range} allocates one loop-variable vector per call. The
    observed replay and the simulator walk the whole trace, and their
    inner loops must allocate nothing per access (allocation-budget
    tests gate both). So each preallocates the vector once in a
    [scratch] and reuses it across every walk: one per replay, one per
    simulated core.

    {b Thread safety}: a scratch is not thread-safe — it is private
    mutable state of the single replay or core that made it; never
    share one across domains. The trace itself stays immutable and freely
    shareable. *)

type scratch

val make_scratch : t -> scratch
(** A scratch sized for the largest nest of [t] (it grows if later used
    with a bigger trace). *)

val iter_range_s :
  ?step:int ->
  t ->
  scratch ->
  nest:int ->
  lo:int ->
  hi:int ->
  (addr:int -> write:bool -> unit) ->
  unit
(** Exactly {!iter_range} — same order, same addresses — but walking
    through the caller's [scratch] instead of allocating: the only
    per-call cost beyond the walk is clearing the vector. *)

val fill_iteration_s :
  t -> scratch -> step:int -> nest:int -> iter:int -> buf:int array -> int
(** [fill_iteration_s t sc ~step ~nest ~iter ~buf] writes the encoded
    accesses of one parallel iteration into [buf], in {!iter_range}
    order, and returns their count. Each element encodes
    [(addr lsl 1) lor write_bit] — see {!decode_addr} and
    {!decode_write}. [buf] must hold at least [accesses_per_par_iter]
    elements. The loop variables live in the caller's [scratch], and
    the walk allocates nothing: the simulator fills every iteration of
    a core through that core's scratch. [step] is required rather than
    optional, since passing an optional argument would allocate. *)
