(** Binary min-heap of (time, id) events — the ready queue shared by
    every discrete-event loop in the tree.

    Two consumers pull from this one implementation: the manycore
    simulator ([Machine.Engine]) pushes one event per shared-resource
    transaction, and the cluster scheduler ([Sched.Sim]) pushes job
    arrivals and completions. Both care about the same two properties,
    which the direct unit tests ([test/test_event_heap.ml]) pin:

    - {e ordering}: [pop] always returns a minimum-time event, so the
      sequence of popped times is non-decreasing whatever the
      interleaving of pushes and pops;
    - {e determinism}: the heap is a pure sequential structure — the
      same sequence of [push]/[pop] calls always yields the same
      sequence of results. Ties ({e equal} times) are popped in an
      {e unspecified but reproducible} order; a caller that needs a
      total order across simultaneous events must impose its own
      tie-break on the ids it popped (the cluster scheduler drains all
      events of the current time and sorts them by id).

    Specialised to unboxed ints for speed; {!min_time} with {!pop_id}
    drains it without allocating.

    {b Thread safety}: not thread-safe. A heap is private to the event
    loop that allocated it and is mutated without locks. *)

type t

val create : capacity:int -> t
(** Initial capacity hint; the heap grows as needed. *)

val push : t -> time:int -> id:int -> unit
(** Raises [Invalid_argument] on a negative time. *)

val pop : t -> (int * int) option
(** Smallest-time event as [(time, id)], or [None] when empty. *)

val min_time : t -> int
(** Time of the event {!pop_id} would return. Raises
    [Invalid_argument] on an empty heap. *)

val pop_id : t -> int
(** Removes the smallest-time event and returns its id, allocating
    nothing: the simulator's drain loop reads {!min_time} first. It is
    the same removal as {!pop} (same comparisons, same array layout
    afterwards), so mixing the two changes no pop order. Raises
    [Invalid_argument] on an empty heap. *)

val peek_time : t -> int option

val size : t -> int

val is_empty : t -> bool
