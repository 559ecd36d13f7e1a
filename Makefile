# Two-Chains build/test entry points. `make check` is the tier-1 gate CI
# runs: formatting, vet, lint, build, race tests, the benchmark harness's
# reference tests, and benchmark smoke passes (mesh workloads plus the
# handle-vs-string invocation pair, with -benchmem so allocation
# regressions surface in CI logs).
#
# `make lint` runs cmd/tclint — the static checkers for the ROADMAP's
# ownership-domain and determinism contracts (scratchescape,
# poolownership, detsource, sharddomain) — and fails on any diagnostic.
# Suppress a single finding with `//tclint:allow <analyzer> <reason>`;
# stale or malformed directives fail the lint themselves. The vet
# target names copylocks/loopclosure/atomic explicitly so a toolchain
# default change can never silently drop them.
#
# `make perfbench-test` runs the benchmark harness's own tests. They pin
# every perfbench workload's digest, injection count and simulated time
# against perfbench/refs.json; perfbench is a nested module, so
# `go test ./...` never reaches them.
#
# `make examples` builds and runs every examples/* binary headless — the
# cheapest whole-surface smoke of the public API (CI runs it too).
#
# `make bench-json` regenerates $(BENCH_OUT) (BENCH_PR10.json by
# default; override with BENCH_OUT=...) — the machine-readable perf
# trajectory point (ns/op, allocs/op, simulated injections/sec, speedup
# vs the recorded pre-PR-3 baseline in bench/BASELINE_PR3.json), now
# including the 64/128-node parallel-engine mesh pairs (workers=NumCPU
# vs workers=1 twins of the same bit-identical simulation), the
# speculative-window variant, the multi-tenant overload benchmark with
# its per-tenant goodput metrics, and the chaos-perturbed fail/rejoin
# mesh with its loss ledger. bench-smoke gates sim_inj_per_sec against
# the newest recorded trajectory file ($(SMOKE_BASELINE)) and
# BenchmarkFuncCall/BenchmarkStringInject ns/op against the JIT
# recording ($(FUNC_BASELINE), lower is better); chaos-smoke race-runs
# the fail/rejoin drain and the lookahead-fuzz violation diagnostic.
# `make profile` captures CPU+heap profiles of BenchmarkMeshAllToAll for
# diagnosing regressions (mesh_cpu.prof / mesh_mem.prof, inspect with
# `go tool pprof`).

GO ?= go
GOFMT ?= gofmt
BENCH_OUT ?= BENCH_PR10.json
SMOKE_BASELINE ?= BENCH_PR9.json
# FUNC_BASELINE gates BenchmarkFuncCall ns/op (lower is better) so the
# compiled-jam fast path can't silently regress; it points at the PR
# that recorded the JIT win.
FUNC_BASELINE ?= BENCH_PR10.json

.PHONY: check fmt-check vet lint build test perfbench-test bench-smoke chaos-smoke bench-json profile perf examples

check: fmt-check vet build lint test perfbench-test chaos-smoke bench-smoke

fmt-check:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -loopclosure -atomic ./...

lint:
	$(GO) run ./cmd/tclint ./...

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

perfbench-test:
	cd perfbench && $(GO) test .

examples:
	$(GO) build ./examples/...
	@for d in examples/*/; do \
		echo "== $$d"; \
		$(GO) run ./$$d >/dev/null || exit 1; \
	done
	@echo "all examples ran clean"

bench-smoke:
	$(GO) test -short -run xxx -bench 'BenchmarkMesh|BenchmarkKVStore|BenchmarkMultiPhase' -benchmem -benchtime 1x . \
		> bench_smoke.out || { cat bench_smoke.out; rm -f bench_smoke.out; exit 1; }
	@cat bench_smoke.out
	@$(GO) run ./cmd/benchjson -smoke -baseline $(SMOKE_BASELINE) -metric sim_inj_per_sec -tol 0.25 < bench_smoke.out; \
		st=$$?; rm -f bench_smoke.out; exit $$st
	$(GO) test -run xxx -bench 'BenchmarkFuncCall$$|BenchmarkStringInject' -benchmem -benchtime 200000x . \
		> bench_func.out || { cat bench_func.out; rm -f bench_func.out; exit 1; }
	@cat bench_func.out
	@$(GO) run ./cmd/benchjson -smoke -baseline $(FUNC_BASELINE) -metric ns/op -tol 0.25 < bench_func.out; \
		st=$$?; rm -f bench_func.out; exit $$st

chaos-smoke:
	$(GO) test -race -run 'TestFailRejoinDrain|TestChaosLookaheadFuzzViolation' ./internal/workload

bench-json:
	@{ $(GO) test -run xxx -bench 'BenchmarkMeshFanout$$|BenchmarkMeshAllToAll$$|BenchmarkMeshHotspot$$|BenchmarkKVStore|BenchmarkMultiPhase|BenchmarkMultiTenantOverload' -benchmem -benchtime 10x . && \
	   $(GO) test -run xxx -bench 'BenchmarkMesh(AllToAll|Fanout|Hotspot)(64|128)|BenchmarkMeshChaos64' -benchmem -benchtime 1x . && \
	   $(GO) test -run xxx -bench 'BenchmarkFuncCall$$|BenchmarkStringInject|BenchmarkFramePack' -benchmem -benchtime 200000x . && \
	   $(GO) test -run xxx -bench 'BenchmarkEngine' -benchmem -benchtime 200000x ./internal/sim; } \
	| $(GO) run ./cmd/benchjson -baseline bench/BASELINE_PR3.json -o $(BENCH_OUT)
	@echo "wrote $(BENCH_OUT)"

profile: vet
	$(GO) test -run xxx -bench BenchmarkMeshAllToAll -benchtime 20x \
		-cpuprofile mesh_cpu.prof -memprofile mesh_mem.prof .
	@echo "profiles: mesh_cpu.prof mesh_mem.prof (go tool pprof -top mesh_cpu.prof)"

perf:
	$(GO) run ./cmd/tcperf -e mesh
	$(GO) run ./cmd/tcperf -e scenarios
