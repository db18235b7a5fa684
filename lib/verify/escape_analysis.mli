(** Domain-escape analysis ({!Ast_lint} rules [domain-escape] and
    [unguarded-global]).

    Values captured by a closure handed to [Domain.spawn],
    [Thread.create], or a [Pool] submission ([submit]/[map]/[try_map])
    run concurrently with the submitting domain. The analysis computes
    the closure's free variables from the parsetree and flags two
    shapes of unsafe capture:

    - a {e top-level mutable binding} of the same file ([ref],
      [Hashtbl.create], [Queue.create], [Buffer.create], [Array.make],
      …) used inside the closure with no lock held;
    - a {e mutation} of any captured name — [x := …], [incr]/[decr],
      [x.f <- …], or an in-place container operation
      ([Hashtbl.replace], [Queue.push], [Buffer.add_*], …) — with no
      lock held, unless the name is a top-level [Atomic.make] or
      [Mutex.create] binding.

    "No lock held" is {!Lock_analysis}'s verdict at the identifier: a
    region under [Mutex.protect], between [Mutex.lock] and
    [Mutex.unlock], or inside a closure handed to a discovered guard
    wrapper ([with_lock (fun () -> hits := !hits + 1)] with a
    [Mutex.lock] + [Fun.protect] wrapper) is guarded. Reads of
    immutable captures, [Atomic] traffic and lock-disciplined access
    are never flagged; mutation through any captured alias is.

    The [domain-escape] rule is intra-closure. State reached through
    calls is the [unguarded-global] rule's: every function reachable
    from a sink argument through call sites (or uses of a function as
    a value) with no lock held runs on another domain, and each use
    there of a top-level mutable binding with no lock held is flagged.
    Reachability and lock sets are {!Lock_analysis}'s, guard-wrapper
    replay included: [with_lock (fun () -> lookup k)] is guarded.
    Names are resolved like calls ({!Callgraph.resolve}); a local that
    shadows a top-level binding is not told apart, except for the
    enclosing function's parameters.

    {b Thread safety}: stateless; analysis allocates per call. *)

type kind = Mutable | Atomic | Mutex | Other

val toplevel_kinds : Ast_source.t -> (string, kind) Hashtbl.t
(** How each parameterless top-level binding of the file is created —
    the classification behind both the escape rule and {!Ast_lint}'s
    concurrency-surface test. *)

val analyze :
  Callgraph.t ->
  (Callgraph.func * Lock_analysis.site list) list ->
  Ast_source.finding list
(** All domain-escape and unguarded-global findings over the graph's
    sources, given {!Lock_analysis.analyze}'s sites; unfiltered
    (suppression markers are applied by {!Ast_lint}). *)
