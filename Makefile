GO ?= go

.PHONY: build test race lint vet check bench bench-smoke fabric-chaos fabricplace fmt doccheck loc identity

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Static checks: go vet always; staticcheck when installed (CI installs
# it, local environments may not have it); then Dejavu's own deployment
# verifier over the shipped configs — the good config must be clean, the
# demo-bad config must fail.
lint: build
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	$(GO) run ./cmd/dejavu -config configs/edgecloud.json lint
	@if $(GO) run ./cmd/dejavu -config configs/lintdemo-bad.json lint >/dev/null 2>&1; then \
		echo "ERROR: lintdemo-bad.json unexpectedly passed"; exit 1; \
	else \
		echo "lintdemo-bad.json correctly rejected"; \
	fi

# Source-level invariant analyzers (docs/STATIC_ANALYSIS.md): dvvet
# loads and analyzes the whole module in one process and must report
# zero findings on the committed tree (exit 2 on any finding).
vet:
	$(GO) build -o bin/dvvet ./cmd/dvvet
	./bin/dvvet ./...

# The full local gate: everything CI runs that this container can.
check: build vet lint test doccheck

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# Benchmark smoke (bench/README.md): one traced 3-second run of each
# workload BENCHMARK.json lists — the §5 chain, its two-injector and
# bare-forward controls, the punt slow path, intent applies beside live
# traffic, fabric heal — each printing its end-to-end figures and
# per-layer ledger and exiting non-zero unless every output check held
# (correct=true). One workload: `make bench-smoke SMOKE=apply-churn`.
SMOKE ?= $(shell sed -n '/"workloads"/,/^  \]/s/.*"name": "\([^"]*\)".*/\1/p' BENCHMARK.json)
bench-smoke:
	@for w in $(SMOKE); do \
		echo "== $$w"; \
		$(GO) run ./bench --workload $$w --seconds 3 --trace 1 || exit 1; \
	done

# Fabric chaos soak: the multi-switch fault-tolerance gate (DESIGN.md
# §12) — reconciler + soak tests under the race detector (including the
# remembered-plan differential walk, the all-or-nothing commit, a
# scripted kill and revival, and the refusal of faults a fabric cannot
# apply), the single-switch round's tests (DESIGN.md §7, including its
# level-triggered differential), TestCLIGolden (`chaos -switches 3
# -json` seeds 1/7/42, seed 7's transcript, against the committed
# cmd/dejavu/testdata bytes),
# the CLI's refusal of a negative -switches/-ticks, then the CLI over
# the canonical seeds.
fabric-chaos: build
	$(GO) test -race -run 'TestFabricChaos|TestReconciler|TestReconcilerCommitsAllOrNothing|TestFabricReadersTakeNoLock|TestFabricProbesRaceWriters' ./internal/core/ ./internal/cluster/
	$(GO) test -race -run 'TestReconcileLevelTriggered|TestHandlePort' ./internal/core/
	$(GO) test -run 'TestCLIGolden' ./cmd/dejavu/
	$(GO) test -race -run 'TestChaosRefusesNegativeOptions' ./cmd/dejavu/
	@for seed in 1 7 42; do \
		$(GO) run ./cmd/dejavu chaos -switches 3 -seed $$seed -ticks 40 || exit 1; \
	done

# Topology-aware placement gate (DESIGN.md §14): placement engine and
# per-chain reconciler convergence tests under the race detector —
# TestPlace* includes the placement-contract property test over 3 000
# seeded random fabrics; the two TestFabric{SwitchOverflow,PlanMatches}
# tests hold each switch's staged build (DV001 refusal, route.Plan ≡
# datapath per switch) — then the dvexp comparison table, which itself
# errors if the adopted plan ever scores worse than the lex-path
# candidate or no row wins strictly via a branching placement.
fabricplace: build
	$(GO) test -race -run 'TestPlace|TestGreedySegment|TestReconciler|TestPlan|TestFabricPlace|TestFabricSwitchOverflowIsRefused|TestFabricPlanMatchesDatapath|TestFabricHealWritesOnlyWhatChanged|TestFabricValidation|TestFabricDryRunRejectsWhatApplyRejects' ./internal/fabricplace/ ./internal/cluster/ ./internal/experiments/ ./internal/intent/
	$(GO) run ./cmd/dvexp -exp fabricplace

fmt:
	gofmt -l -w .

# Documentation gate: every internal package must carry a package-level
# godoc comment (in a non-test file), and the markdown docs must pass
# the link + Go-snippet checks in docs_check_test.go.
doccheck:
	@fail=0; \
	for d in $$($(GO) list -f '{{.Dir}}' ./internal/...); do \
		if ! grep -s -q -E '^// ?Package [a-z]' $$(ls $$d/*.go | grep -v _test.go); then \
			echo "missing package comment: $$d"; fail=1; \
		fi; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "package comments: all internal packages documented"
	$(GO) test -run 'TestDocs' .

# Non-test Go lines (ROADMAP aim 2: every PR reports its non-test line
# delta) for internal/, cmd/ and the whole module outside bench/, then
# the number of internal/ packages (directories holding non-test Go
# files). Analyzer fixtures under testdata/ are test inputs and are not
# counted.
loc:
	@files() { find "$$@" -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './bench/*' -print0; }; \
	count() { files "$$@" | xargs -0 cat | wc -l; }; \
	printf '%-22s %6d\n' 'internal/' $$(count internal) 'cmd/' $$(count cmd) 'module outside bench/' $$(count .) \
		'internal/ packages' $$(files internal | xargs -0 -n1 dirname | sort -u | wc -l)

# Byte-identity against a base revision (scripts/identity.sh): the
# chaos forms over seeds 1–25 with and without -config, the one-shot
# commands and dvexp, compared on stdout, stderr and exit status. A
# simplicity change proves it moved no behaviour with
# `make identity BASE=<parent>`. Not a CI step: CI has no parent build.
identity:
	@test -n "$(BASE)" || { echo "usage: make identity BASE=<rev>"; exit 2; }
	./scripts/identity.sh $(BASE)
