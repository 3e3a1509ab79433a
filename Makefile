# Tier-1 verification: everything CI (and the next PR) relies on.
# `make check` must stay green.

GO ?= go
RACE_PKGS := ./...

.PHONY: check fmt vet lint build cross escape inline test alloc-guard race race-cancel race-overload race-deadlock race-adaptive race-template bench bench-smoke doc-names tracked waivers

check: fmt vet lint waivers doc-names build cross escape inline test alloc-guard race race-cancel race-overload race-deadlock race-adaptive race-template bench-smoke

fmt:
	@out=$$(gofmt -s -l .); if [ -n "$$out" ]; then \
		echo "gofmt -s needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant static analysis (cmd/eiilint): the interprocedural
# engine — package facts, call graph, and all ten checks (determinism,
# map order, retention of arena memory and borrowed batches, snapshot
# immutability, dropped transfer errors, context propagation,
# acquire/release, lock order, goroutine leaks, switch exhaustiveness).
# `go run` keeps it toolchain-only — no installed binary.
lint:
	$(GO) run ./cmd/eiilint ./...

build:
	$(GO) build ./...

# The packages whose layout depends on the pointer width — a datum.Datum is
# a pointer and a payload word, an arena finds slabs by hashing a pointer —
# vetted and tested on a 32-bit target too. The amd64 toolchain builds 386
# binaries and an x86-64 host runs them, so this needs nothing installed.
cross:
	GOARCH=386 $(GO) vet ./internal/datum ./internal/arena && GOARCH=386 $(GO) test ./internal/datum ./internal/arena

# Escape fence: the plan builder's recursion must not move its Options to
# the heap. A closure that captures opts in any of these functions does,
# on every call — one allocation per operator built, which the allocation
# fences would show as a number but no test names. The prefetch helpers
# (prefetchRemote, prefetchInput) may keep theirs: they run only where a
# fetch gets a goroutine of its own.
ESCAPE_FENCED := buildNode|buildBatch|buildJoin|assembleJoin|trySemiJoin

escape:
	@bad=$$($(GO) build -gcflags=-m ./internal/exec 2>&1 | grep ': moved to heap: opts$$' | \
		while IFS=: read -r file line _; do \
			sed -n "$${line}p" "$$file" | grep -Eq '^func ($(ESCAPE_FENCED))\(' && echo "$$file:$$line"; \
		done); \
	if [ -n "$$bad" ]; then echo "exec.Options moved to heap (a closure captures opts):"; echo "$$bad"; exit 1; fi

# Inline fence: the datum accessors every operator calls per value must
# stay inlinable, or each read becomes a call. The compiler's -m report
# must say `can inline` for each of them.
INLINED := Kind IsNull Bool Int Float Str

inline:
	@out=$$($(GO) build -gcflags=-m ./internal/datum 2>&1); bad=; \
	for f in $(INLINED); do echo "$$out" | grep -q ": can inline Datum\.$$f$$" || bad="$$bad $$f"; done; \
	if [ -n "$$bad" ]; then echo "datum accessors that no longer inline:$$bad"; exit 1; fi

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
# Beside it, peer fragments prefetched concurrently into one coordinator
# query's scratch must answer as a single engine does, and a held Result
# must not change when later queries reuse the pooled scratches.
race-deadlock:
	$(GO) test -race -run 'TestClusterAdmissionDeadlockStress|TestFragmentRowsDieWithTheirQuery' -count=3 ./internal/cluster

# E20 replan storm: concurrent clients over a stale-stats federation with
# mid-query re-optimization firing, repeated under the race detector. The
# replan loop joins abandoned prefetch goroutines (Scratch.WaitBorrowers)
# before absorbing the cardinality ledger; this storm is what keeps that
# join honest across schedules. Beside it, warm plan-cache hits and
# re-plans share one cached template, which no pass may write into — the
# estimates and streams a plan carries are recorded on copies. And a
# re-planned, traced, explained
# query's Result must not change when later queries reuse its pooled
# scratch, whose slabs held its operator tree.
race-adaptive:
	$(GO) test -race -run 'TestE20AdaptiveReplanStorm|TestE20ReplansBesideWarmHits|TestScratchOperatorsDieWithTheirQuery' -count=3 ./internal/core

# Template storm: eight clients run one cached plan template, as literal
# statements and as a prepared statement, each with its own values, under
# the race detector, and each answer must equal its NoPlanCache twin's.
# Concurrent fetches of one fragment hand its prepared state (a cached
# plan's exec.FragmentSlot) from fetch to fetch, and the parameter values
# each binds into it must never reach another's. The storm runs on one
# node and again on a 2-node cluster, where each coordinator prefetches
# the fragment its peer owns and the peer reads the coordinator's values
# from the query scratch riding the fragment's context.
race-template:
	$(GO) test -race -run 'TestTemplateStorm' -count=3 ./internal/core

# Allocation fences (see alloc_guard_test.go): the warm plan-cache-hit
# path must stay inside its E17 allocs/op and bytes/op budget, a query
# compiled from scratch (cache bypassed) inside its own, the compact heap
# copy of its plan at one allocation per type the plan holds, and under
# the default {Parallel, Adaptive} configuration the prepared point query,
# an IN-list-tier semi-join and the E14 report join must stay inside theirs
# — no allocation per join key or shipped key — the sequential E14 report
# aggregate inside its own — none per input row or group — and one indexed
# point fetch at a source inside its own, none of it spent choosing the
# access path or compiling its filter. Compiling the portal's predicates
# and an indexed IN-list into a warm query scratch allocates nothing. At Parallelism 1 and 2 the E14 fan-out and report aggregate
# must each allocate at most 64 KB a query: sources hand over zero-copy
# heap snapshots and parallel operators hold a window of their input, so
# nothing scales with the input. A 4000-group aggregate at a source must
# stay inside its own budget: its group table comes from the query
# scratch, sized from the optimizer's estimate. A warm cross-shard join on
# a 2-node cluster, bloom- and IN-list-tier, must stay inside its own byte
# budget: a peer's fragment rows land in the coordinator's query scratch,
# not on the heap, and inside its own allocation count: the peer
# re-optimizes every fragment, into a pooled arena. Beside them, the goroutine fence
# (prefetch_test.go): a fetch gets a prefetch goroutine only where a sibling
# can overlap it — none for the portal point query, one for a two-remote
# join, two for the three-source fan-out and for a three-input union. And in
# ./internal/opt, the copy-on-change fence: over a plan they leave as it
# is, the optimizer passes, parallelism annotation included, return their
# input and allocate nothing, and so does the last pass over a plan that
# carries its estimates already; and a warm plan-cache hit evaluates no
# estimate, renders no feedback signature and looks up no observation.
# -count=1 defeats the test cache so the guards actually measure on every
# check.
alloc-guard:
	$(GO) test -run 'TestE17AllocGuard|TestColdCompileAllocGuard|TestRetainIsCompact|TestKeyedLookupAllocGuard|TestParallelAllocGuard|TestPointFetchAllocGuard|TestCompileAllocGuard|TestSourceAggregateAllocGuard|TestPeerFragmentAllocGuard|TestPrefetchCounts|TestUnchangedPlanComesBackItself|TestAnnotatedPlanComesBackItself|TestWarmHitEstimatesNothing' -count=1 . ./internal/opt

bench:
	$(GO) test -bench=. -benchmem .

# One iteration of every root microbenchmark, of exec's mechanism
# microbenchmarks (IN-list, join build and probe, group table) and of
# plan's parameter binding (BenchmarkBindParams): cheap enough
# for every `make check`, it keeps the microbenchmark code itself compiling
# and running (a broken bench otherwise goes unnoticed until someone runs
# the full suite). It measures nothing and leaves nothing behind — numbers
# worth keeping come from the repo benchmark (bench/, BENCHMARK.json).
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/exec
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/plan

# Every Benchmark* name the docs cite must be (a prefix of) a benchmark
# that exists, so a deleted or renamed one cannot live on in prose.
doc-names:
	@for b in $$(grep -oh 'Benchmark[A-Z][A-Za-z0-9]*' README.md DESIGN.md EXPERIMENTS.md | sort -u); do \
		grep -rqs --include='*_test.go' --exclude-dir=.bench_build "^func $$b" . || { echo "docs cite $$b: no such benchmark"; bad=1; }; \
	done; [ -z "$$bad" ]

# ROADMAP aim 2's tracked numbers: non-test lines in the executor and the
# engine, in the lint suite, and in the whole module, and `//lint:ignore`
# waivers in production code. All four should only go down.
NONTEST_GO = grep -v -e _test.go -e /testdata/ -e '^./.bench_build/'
WAIVERS = grep -rn '^\s*//lint:ignore' --include=*.go . | grep -v -e _test.go -e testdata -e .bench_build | wc -l
MAX_WAIVERS := 3

tracked:
	@echo "exec+core non-test lines: $$(ls internal/exec/*.go internal/core/*.go | $(NONTEST_GO) | xargs cat | wc -l)"
	@echo "analysis non-test lines:  $$(ls internal/analysis/*.go | $(NONTEST_GO) | xargs cat | wc -l)"
	@echo "module non-test lines:    $$(find . -name '*.go' | $(NONTEST_GO) | xargs cat | wc -l)"
	@echo "production waivers:       $$($(WAIVERS)) (limit $(MAX_WAIVERS))"

# A new waiver is a new exception to a project invariant: fix the finding,
# or lower another waiver first. Lower MAX_WAIVERS whenever the count drops.
waivers:
	@n=$$($(WAIVERS)); if [ $$n -gt $(MAX_WAIVERS) ]; then \
		echo "$$n production //lint:ignore waivers, limit is $(MAX_WAIVERS)"; exit 1; fi
