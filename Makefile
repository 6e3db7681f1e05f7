# Developer entry points. `make bench-core` records the BenchmarkSelect
# matrix (uncached sweep vs lazy step loop, in internal/core, plus the lazy
# loop on the full-size ERP) as results/BENCH_core.json; `make bench-lp`
# records branch-and-bound node throughput (sparse warm-started with one
# node-solve worker and with GOMAXPROCS workers, on two instance sizes, vs
# the dense cold-start test oracle) at GOMAXPROCS 1 and 2 as
# results/BENCH_lp.json; `make bench-whatif`
# records the what-if hot-path microbenchmarks (cached/cold probes,
# applicability checks, selection clones; flat interned tables vs the
# string-keyed whatiftest oracle) as results/BENCH_whatif.json and fails if
# the flat cached probe allocates; `make bench-candidates` records candidate
# enumeration on the SQL-log write workload (Enumerate + the record-ranked
# Select for the H5 and CoPhy candidate sets) as results/BENCH_candidates.json
# and fails if an allocation per chosen combination comes back; `make
# bench-heuristics` records H5 and H4-skyline over the H5 candidate set as
# results/BENCH_heuristics.json and fails if an allocation per candidate
# comes back; `make bench-engine` records engine
# index builds over key widths and table sizes as results/BENCH_engine.json
# and fails if a build allocates more than its output; `make bench-drift`
# records one guardrailed delta plan (drift.PlanDelta) on a scaled ERP,
# free and priced per created byte, as results/BENCH_drift.json. All are committed so perf
# trajectories are tracked across changes. `make oracle-guard` fails if a
# differential oracle leaks into a shipped binary, or if an internal package
# other than the oracle package is imported only by tests.

GO ?= go
BENCH_COUNT ?= 3
BENCH_PATTERN := ^BenchmarkSelect(Seed|Lazy|LazyERPFull)$$
BENCH_LP_PATTERN := ^BenchmarkMIP(Sparse|Dense)$$
BENCH_FLEET_PATTERN := ^BenchmarkFleet(Sequential|Pooled|PooledShared|NearCloneTwin|NearCloneNearMatch|Unstreamed|Streamed|SpillRebuild|SpillRestore)$$
BENCH_WHATIF_PATTERN := ^Benchmark(WhatifCachedProbe|WhatifColdProbe|Applicable|SelectionClone)_
# Allocation ceilings for the what-if hot path: the flat cached probe must
# stay allocation-free, and an ID-selection clone is one bitset allocation.
BENCH_WHATIF_GUARDS := \
	-max-allocs 'BenchmarkWhatifCachedProbe_Flat=0' \
	-max-allocs 'BenchmarkSelectionClone_IDSet=1'
BENCH_CANDIDATES_PATTERN := ^BenchmarkCandidateSet$$
# One candidate set merges about 340 000 subset records into 319 000
# combinations and materializes at most 11 550 chosen ones, all Attrs from
# one slab: 57 (H5) and 48 (CoPhy) allocs/op measured. The ceiling of 100
# leaves about 45 for slice growth and fails on any allocation per chosen
# combination, let alone per record.
BENCH_CANDIDATES_GUARDS := \
	-max-allocs 'BenchmarkCandidateSet/H5_15000=100' \
	-max-allocs 'BenchmarkCandidateSet/CoPhy_500=100'
BENCH_HEURISTICS_PATTERN := ^BenchmarkH5$$
# H5 and H4-skyline over 11 550 H1-M candidates on a fresh optimizer: about
# 158 000 and 162 000 allocs/op measured, nearly all inside the Appendix-B
# cost model and the what-if cache. A ceiling 10 000 above each fails on any
# allocation per candidate (11 550) or per probe.
BENCH_HEURISTICS_GUARDS := \
	-max-allocs 'BenchmarkH5/H5=168000' \
	-max-allocs 'BenchmarkH5/H4_skyline=172000'
BENCH_DRIFT_PATTERN := ^BenchmarkPlanDelta(Reconfig)?$$
BENCH_ENGINE_PATTERN := ^BenchmarkEngineIndexBuild$$
# A build allocates its output permutation and the index header; the pass
# buffer and bucket counts are pooled. The ceiling of 3 leaves one spare
# small allocation and fails on any allocation per key column or per pass.
BENCH_ENGINE_GUARDS := $(foreach arm,w1_rows5000 w2_rows5000 w4_rows5000 \
	w1_rows100000 w2_rows100000 w4_rows100000,-max-allocs 'BenchmarkEngineIndexBuild/$(arm)=3')

.PHONY: build test race oracle-guard bench-core bench-lp bench-whatif bench-candidates bench-heuristics bench-engine bench-drift bench-fleet bench-compare

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/core ./internal/whatif ./internal/engine ./internal/lp

# The differential oracles (the string-keyed reference selector and what-if
# cache, the uncached Extend sweep, the dense LP, the map-and-sort candidate enumeration and selection,
# the by-value H4/H5 scoring path, the comparison-sort index build) and the
# noisy cost-source double live in test code only: no shipped command or
# example may link them.
ORACLE_SYMBOLS := refSelector|refTables|collectSweep|denseSolve|NoisySource|combosReference|selectReference|benefitReference|buildIndexSorted
ORACLE_PKG := repro/internal/whatif/whatiftest

oracle-guard:
	$(GO) build -o $${TMPDIR:-/tmp}/indexadvisor.oracle-guard ./cmd/indexadvisor
	@if $(GO) tool nm $${TMPDIR:-/tmp}/indexadvisor.oracle-guard | grep -E '$(ORACLE_SYMBOLS)'; then \
		echo "oracle symbols linked into cmd/indexadvisor"; exit 1; fi
	@if $(GO) list -deps ./cmd/... ./examples/... | grep -qx '$(ORACLE_PKG)'; then \
		echo "$(ORACLE_PKG) is a dependency of a shipped command or example"; exit 1; fi
	@rm -f $${TMPDIR:-/tmp}/indexadvisor.oracle-guard
	@used="$$($(GO) list -f '{{range .Imports}} {{.}} {{end}}' ./...)"; \
	for p in $$($(GO) list ./internal/... | grep -vx '$(ORACLE_PKG)'); do \
		case " $$used " in *" $$p "*) ;; \
		*) echo "$$p has no importer outside test files"; exit 1;; esac; \
	done
	@echo "oracle-guard: no oracle in shipped binaries, no internal package without a non-test importer"

bench-core:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem \
		-count $(BENCH_COUNT) -timeout 60m ./internal/core \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > results/BENCH_core.json

bench-lp:
	$(GO) test -run '^$$' -bench '$(BENCH_LP_PATTERN)' -benchmem -cpu 1,2 \
		-count $(BENCH_COUNT) -timeout 60m ./internal/lp \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > results/BENCH_lp.json

bench-whatif:
	$(GO) test -run '^$$' -bench '$(BENCH_WHATIF_PATTERN)' -benchmem \
		-count $(BENCH_COUNT) -timeout 30m ./internal/whatif \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson $(BENCH_WHATIF_GUARDS) \
		> results/BENCH_whatif.json

bench-candidates:
	$(GO) test -run '^$$' -bench '$(BENCH_CANDIDATES_PATTERN)' -benchmem \
		-count $(BENCH_COUNT) -timeout 30m ./internal/candidates \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson $(BENCH_CANDIDATES_GUARDS) \
		> results/BENCH_candidates.json

bench-heuristics:
	$(GO) test -run '^$$' -bench '$(BENCH_HEURISTICS_PATTERN)' -benchmem \
		-count $(BENCH_COUNT) -timeout 30m ./internal/heuristics \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson $(BENCH_HEURISTICS_GUARDS) \
		> results/BENCH_heuristics.json

bench-engine:
	$(GO) test -run '^$$' -bench '$(BENCH_ENGINE_PATTERN)' -benchmem \
		-count $(BENCH_COUNT) -timeout 30m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson $(BENCH_ENGINE_GUARDS) \
		> results/BENCH_engine.json

bench-drift:
	$(GO) test -run '^$$' -bench '$(BENCH_DRIFT_PATTERN)' -benchmem \
		-count $(BENCH_COUNT) -timeout 30m ./internal/drift \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > results/BENCH_drift.json

# Fleet-mode throughput. Three arm groups, all recorded into
# results/BENCH_fleet.json (tracked by bench-compare against the committed
# baseline):
#   Sequential/Pooled/PooledShared     64 tenants, exact clustering; the
#                                      shared arm must hold >= 3x Sequential
#   NearCloneTwin/NearCloneNearMatch   256 near-clone tenants; near-match
#                                      must hold >= 2x the exact-twin arm
#   Unstreamed/Streamed                256 analytic tenants; the streamed
#                                      arm's workload-peak-b must stay
#                                      <= 25% of the unstreamed fleet's
#   SpillRebuild/SpillRestore          restoring spilled cost tables must be
#                                      >= 5x faster than re-probing
bench-fleet:
	$(GO) test -run '^$$' -bench '$(BENCH_FLEET_PATTERN)' -benchmem \
		-count $(BENCH_COUNT) -timeout 60m . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > results/BENCH_fleet.json

# Diff two benchjson documents (median over -count series); exits 1 when NEW
# is slower than BENCH_TOLERANCE allows or allocates more. Example:
#   make bench-compare OLD=results/BENCH_whatif.json NEW=/tmp/fresh.json
BENCH_TOLERANCE ?= 0.20
bench-compare:
	$(GO) run ./cmd/benchjson -compare -tolerance $(BENCH_TOLERANCE) $(OLD) $(NEW)
