# Convenience targets; `make check` is the tier-1 gate.

.PHONY: all check test bench bench-service bench-service-smoke \
        bench-resilience bench-resilience-smoke bench-verify \
        bench-analysis bench-analysis-smoke bench-obs bench-obs-smoke \
        bench-loadgen bench-loadgen-smoke bench-sched sched-smoke \
        bench-sim bench-sim-smoke \
        serve-smoke \
        chaos chaos-net sweep lint fmt fmt-check verify clean

all:
	dune build

# Build + full test suite (unit, property, integration, service).
check:
	dune build && dune runtest

test: check

# Paper tables/figures + micro-benchmarks.
bench:
	dune exec bench/main.exe

# Serving-layer benchmark: pool throughput at 1/2/4/8 domains and
# solution-cache hit rate under a Zipf-skewed request mix. The smoke
# variant is the CI bit-rot gate (tiny inputs, domains 1,2).
bench-service:
	dune exec bench/service_bench.exe

bench-service-smoke:
	dune exec bench/service_bench.exe -- --smoke

# Analysis fast-path benchmark: summary construction per registry
# workload, seed sequential path vs the memoized fast path at 1/2/4/8
# domains; writes BENCH_analysis.json (geomean CME speedup target:
# >= 3x). The smoke variant is the CI bit-rot gate: 3 workloads at
# scale 0.1, and it cross-checks fast = seed summaries byte-for-byte.
bench-analysis:
	dune exec bench/analysis_bench.exe

bench-analysis-smoke:
	dune exec bench/analysis_bench.exe -- --smoke --out /dev/null

# Resilience-layer cost: wrapper overhead with injection disabled
# (p50/p99, target < 2%) and degraded-path vs full-pipeline latency.
bench-resilience:
	dune exec bench/resilience_bench.exe

bench-resilience-smoke:
	dune exec bench/resilience_bench.exe -- --smoke

# Observability cost: the serving path with no obs handles vs
# registered-but-disabled vs enabled metrics+tracer (targets: ~0%
# disabled, < 2% enabled), plus ns/op for the individual instrument
# operations. Exit code reflects only response byte-equality across
# the three variants; timings are informational.
bench-obs:
	dune exec bench/obs_bench.exe

bench-obs-smoke:
	dune exec bench/obs_bench.exe -- --smoke

# Network load benchmark: open-loop Poisson arrivals against a
# self-hosted `lib/net` server — throughput, shed rate, served/shed
# latency percentiles. The smoke variant is the CI bit-rot gate.
bench-loadgen:
	dune exec bench/loadgen_bench.exe

bench-loadgen-smoke:
	dune exec bench/loadgen_bench.exe -- --smoke

# Cluster-scheduler benchmark: fcfs vs EASY backfilling vs
# locality-aware contiguous placement over the 21-workload registry at
# a sweep of offered loads; writes BENCH_sched.json (modelled numbers
# only, byte-stable across domain counts) and exits non-zero unless
# the locality-aware policy beats both baselines on mean stretch or
# deadline-miss rate somewhere while keeping utilization within 5% of
# EASY. The smoke variant is the CI gate: 6 workloads, one load,
# domains 1,2 — it also pins cross-domain schedule byte-determinism.
bench-sched:
	dune exec bench/sched_bench.exe

sched-smoke:
	dune exec bench/sched_bench.exe -- --smoke --out /dev/null

# Simulator hot-path benchmark: Machine.Engine.run alone over the
# evaluation path's 18 cases (nine kernels x private/shared LLC at
# scale 0.25, Default and Location_aware schedules); writes
# BENCH_sim.json with engine ms, ns, heap events and minor-heap words
# per simulated access. The smoke variant is the CI gate: fft and
# barnes, deterministic counters only — at most 4 minor words per
# access, and no more heap events than BENCH_sim.json records.
bench-sim:
	dune exec bench/sim_bench.exe

bench-sim-smoke:
	dune exec bench/sim_bench.exe -- --smoke

# End-to-end serve smoke: start `locmap serve` on an ephemeral port,
# drive a loadgen burst to completion, then SIGTERM the server in the
# middle of a second burst and require a clean drain — the server
# exits 0 only if every admitted request was answered. The server runs
# as the built binary (not via `dune exec`) so the signal reaches it.
serve-smoke:
	dune build bin/locmap_cli.exe bench/loadgen_bench.exe
	@rm -f .smoke_port; \
	./_build/default/bin/locmap_cli.exe serve --port 0 \
	  --port-file .smoke_port --max-inflight 2 -d 2 & \
	pid=$$!; \
	for i in $$(seq 1 100); do \
	  [ -s .smoke_port ] && break; sleep 0.1; \
	done; \
	if ! [ -s .smoke_port ]; then echo "server never came up"; \
	  kill $$pid 2> /dev/null; exit 1; fi; \
	port=$$(cat .smoke_port); \
	./_build/default/bench/loadgen_bench.exe --smoke --port $$port \
	  || { kill -TERM $$pid; exit 1; }; \
	./_build/default/bench/loadgen_bench.exe --smoke --port $$port \
	  --tolerate-drain & lg=$$!; \
	sleep 0.3; \
	kill -TERM $$pid; \
	wait $$pid; server_status=$$?; \
	wait $$lg; lg_status=$$?; \
	rm -f .smoke_port; \
	if [ $$server_status -ne 0 ]; then \
	  echo "serve-smoke FAILED: server exit $$server_status (lost requests?)"; \
	  exit 1; \
	fi; \
	if [ $$lg_status -ne 0 ]; then \
	  echo "serve-smoke FAILED: drain-tolerant loadgen exit $$lg_status"; \
	  exit 1; \
	fi; \
	echo "serve-smoke ok: clean drain, zero admitted requests lost"

# Chaos gate: the resilience suite (fault matrix, deadlines, crash
# isolation, 1/2/4/8-domain byte-determinism under injection) repeated
# under three fixed seeds that parameterise the injection plans.
chaos:
	dune build test/test_resilience.exe
	@for seed in 1 42 1337; do \
	  echo "== CHAOS_SEED=$$seed =="; \
	  CHAOS_SEED=$$seed dune exec test/test_resilience.exe || exit 1; \
	done

# Socket-chaos gate: the loadgen drives a self-hosted server whose
# socket ops are wrapped in seeded fault injection (short reads/writes,
# trickle, mid-stream resets) across three fixed seeds, with per-client
# quotas and the circuit breaker armed. The loadgen reconnects through
# resets (--tolerate-resets accepts the stranded sends), but the
# server-side zero-loss invariant is never relaxed: any admitted
# request that goes unanswered fails the run.
chaos-net:
	dune build bench/loadgen_bench.exe
	@for seed in 7 42 1337; do \
	  echo "== chaos-net seed=$$seed =="; \
	  ./_build/default/bench/loadgen_bench.exe --smoke \
	    --chaos "seed=$$seed,short=0.3,reset=0.25,reset_bytes=768,trickle=0.1" \
	    --breaker --tolerate-resets || exit 1; \
	done; \
	echo "chaos-net ok: 3 seeds, clean drains, zero admitted requests lost"
sweep:
	dune exec bin/locmap_cli.exe -- sweep -w fmm,lu,fft -m 4x4,6x6 -d 4

# Concurrency lint (see Verify.Ast_lint): parsetree-based lock-order,
# blocking-under-lock, domain-escape and unguarded-global analysis,
# interprocedural over a per-run call graph, scanning all of lib/,
# bin/ and bench/. Findings also land in lint_findings.json — the CI
# artifact. Then the self-test gate: every seeded rule must fire on
# its positive fixture and stay silent on the near-miss negative.
lint:
	dune build bin/locmap_lint.exe
	./_build/default/bin/locmap_lint.exe --json lint_findings.json
	./_build/default/bin/locmap_lint.exe --selftest test/fixtures/ast_lint

# Semantic verifier over every bundled workload, plus the negative
# self-test (corrupted artifacts must be rejected).
verify:
	dune exec bin/locmap_cli.exe -- check --selftest
	dune exec bin/locmap_cli.exe -- check --selftest --llc shared -q

# Formatting gate. ocamlformat is optional tooling: skip (successfully)
# when the binary is not on PATH so minimal containers still pass.
fmt-check:
	@if command -v ocamlformat > /dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

fmt:
	@if command -v ocamlformat > /dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

# Verification-cost benchmark: Mapper.map with ~verify on vs off
# (target: <= 5% overhead).
bench-verify:
	dune exec bench/verify_bench.exe

clean:
	dune clean
