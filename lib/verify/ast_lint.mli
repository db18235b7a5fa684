(** The AST concurrency lint: orchestrates {!Lock_analysis} and
    {!Escape_analysis} over {!Ast_source}-parsed files, applies
    suppression markers, and renders findings for humans and CI.

    It analyses the parsetree and a per-run call graph of top-level
    bindings, so lock discipline is checked across function and
    library boundaries. Rules:

    - [lock-order-cycle] — the global lock-acquisition-order graph has
      a cycle (potential deadlock between domains).
    - [double-acquire] — a non-reentrant mutex is acquired while
      already held, directly or through a callee (self-deadlock).
    - [blocking-under-lock] — a call that can block indefinitely
      ([Unix] syscalls, [Domain.join], [Condition.wait] on a foreign
      mutex, …) runs while a mutex is held, directly or through a
      callee.
    - [domain-escape] — a closure handed to [Domain.spawn]/[Pool]
      submission captures mutable state without its lock (see
      {!Escape_analysis}).
    - [unguarded-global] — a function reachable from such a closure
      through call sites that hold no lock uses a top-level mutable
      binding with no lock held (see {!Escape_analysis}).
    - [missing-thread-safety-contract] — the implementation has a
      concurrency surface (mutex/atomic/domain use, shared mutable
      state) but its [.mli] documents no thread-safety contract.
      Pure modules are exempt.
    - [missing-interface] (opt-in) — a scanned [.ml] has no [.mli].
    - [parse-error] — the file did not parse; it contributes nothing
      else to the scan.

    Findings are suppressed by [lint:ignore] / [lint:ignore[rule]]
    markers on the reported line (see {!Ast_source}), sorted by
    file/line/rule, and deduplicated.

    {b Thread safety}: stateless; scanning allocates per call. *)

type config = { contract_rule : bool; require_mli : bool }
(** The two opt-in/opt-out rules; the lock and escape rules always run. *)

val default_config : config
(** The contract rule on, [missing-interface] off. *)

val rules : string list
(** Every rule id this lint can emit. *)

type unit_ = { src : Ast_source.t; intf : string option }
(** One compilation unit: parsed implementation plus raw sibling
    interface text, when present. *)

val scan_units : ?config:config -> unit_ list -> Ast_source.finding list
(** Analyse the units as one program (one call graph). Pure. *)

val scan_files : ?config:config -> string list -> Ast_source.finding list
(** Read each [.ml] path (and sibling [.mli]) and {!scan_units}. *)

val scan_dirs :
  ?config:config ->
  ?exclude:string list ->
  string list ->
  Ast_source.finding list
(** {!scan_files} over every [.ml] under the given roots (recursive,
    sorted, [_build] and dot-directories skipped; a plain file is
    scanned directly). [exclude] entries are path prefixes relative to
    how the roots are spelled, e.g. ["lib/verify"]. *)

val to_json : Ast_source.finding list -> string
(** Machine-readable findings: [{"findings":[{file,line,rule,message}
    …],"count":n}] — the CI artifact format. *)

val selftest_expectations : (string * string) list
(** Fixture stem → rule id pairs the self-test drives. *)

val selftest : dir:string -> (string, string) result
(** Seeded-fixture gate: for every expectation, [<stem>_pos.ml] in
    [dir] must produce its rule and [<stem>_neg.ml] must not.
    [Error] lists every silent rule and wrongly-flagged near-miss. *)
