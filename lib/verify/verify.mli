(** Static analysis over the pipeline's artifacts and this repository's
    own sources.

    Two prongs (see DESIGN.md, "Verification & lint"):

    - the {e semantic verifier} ({!Semantic}, re-exported here) checks
      IR well-formedness, affinity invariants and mapping soundness of
      what the pipeline emits — {!report} is the one-call battery the
      [locmap check] CLI subcommand and the test suite share, and
      [Locmap.Mapper.map ~verify:true] asserts the same invariants at
      each pipeline phase boundary;
    - the {e concurrency analyzer} ({!Ast_lint} over {!Ast_source} /
      {!Callgraph} / {!Lock_analysis} / {!Escape_analysis}): a
      parsetree-based, interprocedural analysis of lock order,
      blocking-under-lock, domain-escape and unguarded globals across
      the repository's sources ([bin/locmap_lint.ml], [make lint]).

    {b Thread safety}: stateless; see the submodule contracts. *)

include module type of Semantic

module Ast_source : module type of Ast_source
module Callgraph : module type of Callgraph
module Lock_analysis : module type of Lock_analysis
module Escape_analysis : module type of Escape_analysis
module Ast_lint : module type of Ast_lint
