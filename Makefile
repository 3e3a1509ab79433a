# Tier-1 verification: everything CI (and the next PR) relies on.
# `make check` must stay green.

GO ?= go
RACE_PKGS := ./...

.PHONY: check fmt vet lint build test alloc-guard race race-cancel race-overload race-deadlock race-adaptive bench bench-smoke

check: fmt vet lint build test alloc-guard race race-cancel race-overload race-deadlock race-adaptive bench-smoke

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant static analysis (cmd/eiilint): the interprocedural
# engine — package facts, call graph, and all eleven checks (determinism,
# map order, batch retention, snapshot immutability, dropped transfer
# errors, context propagation, arena escape, acquire/release, lock order,
# goroutine leaks, switch exhaustiveness) — run across a worker pool;
# -stats prints the load/analyze wall-time split and packages/sec.
# `go run` keeps it toolchain-only — no installed binary.
lint:
	$(GO) run ./cmd/eiilint -stats ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# E15 cancel-storm: 64 concurrent clients with random mid-query cancels
# under the race detector, repeated to widen the interleaving space. The
# plain `race` target runs it once as part of the package; this repeats
# it so a cancellation race cannot hide behind one lucky schedule.
race-cancel:
	$(GO) test -race -run 'TestE15CancelStorm' -count=3 ./internal/core

# E16 overload storm: mixed-tenant clients past saturation with random
# cancels under admission control, repeated under the race detector. The
# admission queue's grant-vs-cancel window only opens under contention,
# so this hammers exactly that path.
race-overload:
	$(GO) test -race -run 'TestE16MixedTenantCancelStorm' -count=3 ./internal/core

# E18+E16 deadlock storm: a sharded cluster past admission saturation
# with random mid-query cancels, repeated under the race detector. This
# is the dynamic twin of the static lockorder/goroleak checks: fragment
# shipping, admission slots, and cancellation all contend at once, and a
# watchdog turns any deadlock into a stack dump instead of a CI timeout.
race-deadlock:
	$(GO) test -race -run 'TestClusterAdmissionDeadlockStress' -count=3 ./internal/cluster

# E20 replan storm: concurrent clients over a stale-stats federation with
# mid-query re-optimization firing, repeated under the race detector. The
# replan loop joins abandoned prefetch goroutines (Scratch.WaitBorrowers)
# before absorbing the cardinality ledger; this storm is what keeps that
# join honest across schedules.
race-adaptive:
	$(GO) test -race -run 'TestE20AdaptiveReplanStorm' -count=3 ./internal/core

# Allocation fences (see alloc_guard_test.go): the warm plan-cache-hit
# path must stay inside its E17 allocs/op and bytes/op budget, and under
# the default {Parallel, Adaptive} configuration an IN-list-tier semi-join
# and the E14 report join must stay inside theirs — no allocation per join
# key or shipped key. -count=1 defeats the test cache so the guards
# actually measure on every check.
alloc-guard:
	$(GO) test -run 'TestE17AllocGuard|TestKeyedLookupAllocGuard' -count=1 .

bench:
	$(GO) test -bench=. -benchmem .

# A fixed-iteration pass over the plan-cache and vectorized-execution
# benchmarks: cheap enough for every `make check`, it keeps the benchmark
# code itself compiling and running (a broken bench otherwise goes
# unnoticed until someone runs the full suite), and it leaves
# machine-readable BENCH_E13.json / BENCH_E14.json / BENCH_E15.json /
# BENCH_E16.json / BENCH_E17.json / BENCH_E18.json / BENCH_E19.json /
# BENCH_E20.json artifacts. E19 is the eiilint self-benchmark
# (packages/sec through the full analyzer suite), so analysis-engine
# regressions are tracked the same way engine regressions are; E20 tracks
# the adaptive feedback loop (warm semi-join steady state, static
# baseline, and pure ledger overhead) by shipped bytes per query.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkE13PlanCache|BenchmarkE14Vectorized|BenchmarkE15Cancel|BenchmarkE16OpenLoop|BenchmarkE17FrontEnd|BenchmarkE18Cluster|BenchmarkE19Lint|BenchmarkE20Adaptive' \
		-benchtime 10x -benchmem -json . \
		| $(GO) run ./cmd/benchjson E13=BENCH_E13.json E14=BENCH_E14.json E15=BENCH_E15.json E16=BENCH_E16.json E17=BENCH_E17.json E18=BENCH_E18.json E19=BENCH_E19.json E20=BENCH_E20.json
