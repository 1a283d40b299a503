GO ?= go
AGGVET := bin/aggvet

.PHONY: build test vet lint lint-fixtures race chaos check bench bench-json fuzz cover perfbench-smoke perfpairs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The repo's own determinism/networking invariants (DESIGN.md §8),
# enforced by the custom multichecker in cmd/aggvet via the vettool
# protocol. The script prints a per-analyzer diagnostic summary and
# exits non-zero on any finding; coverage of sqlagg/ and live/ is
# asserted, not assumed.
lint:
	GO="$(GO)" AGGVET="$(AGGVET)" sh scripts/lint.sh

# The analyzers' own test suites: CFG/dataflow engine tests plus the
# hermetic want-comment fixtures under internal/analysis/*/testdata.
lint-fixtures:
	$(GO) test ./internal/analysis/... ./cmd/aggvet/

race:
	$(GO) test -race ./...

# The distributed layer's fault-injection scenarios, race-checked.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' ./internal/dist/... ./internal/faultnet/...

# Short fuzz sweep over both dist wire decoders, the fault-spec parser,
# and the aggregation table's three oracle fuzzers (insert/merge/drain,
# concurrent shared-table folds, batch folds) — the same smoke CI runs;
# use `go test -fuzz=... -fuzztime=10m` for a real session.
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeFrame' -fuzztime 15s ./internal/dist/
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeTFrame' -fuzztime 15s ./internal/dist/
	$(GO) test -run '^$$' -fuzz 'FuzzParseSpec' -fuzztime 15s ./internal/faultnet/
	$(GO) test -run '^$$' -fuzz 'FuzzInsertMergeDrain' -fuzztime 15s ./internal/aggtable/
	$(GO) test -run '^$$' -fuzz 'FuzzConcurrentInsertMerge' -fuzztime 15s ./internal/aggtable/
	$(GO) test -run '^$$' -fuzz 'FuzzBatchUpdate' -fuzztime 15s ./internal/aggtable/

# Statement-coverage ratchet against scripts/coverage-floor.txt.
cover:
	GO="$(GO)" sh scripts/coverage.sh

# The benchmark module's own tests (perfbench/ is a separate Go module,
# so the root ./... never reaches them), then a short run of every
# workload: perfbench exits non-zero on any oracle mismatch.
PERFBENCH_WORKLOADS := live-lowcard live-highcard dist-loopback sql-q1

perfbench-smoke:
	cd perfbench && $(GO) test -race ./...
	for w in $(PERFBENCH_WORKLOADS); do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 || exit 1; \
	done

# Parent-vs-change comparison on one workload: PAIRS alternating pairs of
# RUN_SECONDS-long runs, this checkout against the checkout at PARENT
# (make one with git clone or git archive). Prints the median, range and
# win count of every end-to-end metric.
WORKLOAD ?= dist-loopback
PAIRS ?= 10
RUN_SECONDS ?= 10

perfpairs:
	@test -n "$(PARENT)" || { echo "usage: make perfpairs PARENT=<parent checkout> [WORKLOAD=...] [PAIRS=...] [RUN_SECONDS=...]" >&2; exit 2; }
	bash scripts/perfpairs.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(RUN_SECONDS)"

# What CI runs (CI additionally shuffles test order and runs
# staticcheck/govulncheck, which need network access to install).
check: vet lint race

bench:
	$(GO) test -bench=. -benchmem -run '^$$' ./...

# Machine-readable perf snapshot: ns/op (and simulated seconds) per
# algorithm × selectivity, written to BENCH_pr3.json.
bench-json:
	GO="$(GO)" sh scripts/bench-json.sh
