# Developer entry points. `make check` is the gate a change must pass:
# vet, build, race-enabled tests, the allocation budgets, the scheduler
# ordering gate, the differential oracle, the scenario, cache-benchmark
# and defense registries, documentation coverage and the experiment
# server suite. `make diff` runs the full differential-oracle harness
# (1000 generated programs against the in-order reference model — see
# DESIGN.md §9); `make fuzz` runs the coverage-guided version of the
# same harness for a bounded time; `make bench` runs the root package's
# per-table Go benchmarks. Performance is measured by one harness,
# tools/bench (see tools/bench/README.md):
#
#	bash tools/bench/run.sh --workload registry-sweep --seed 0 --seconds 36 --trace 0

GO ?= go
FUZZTIME ?= 30s

.PHONY: check build test vet race bench alloc-budget sched-order docs diff fuzz scenarios cachebench defense-check server-check

check: vet build race alloc-budget sched-order diff scenarios cachebench defense-check docs server-check

# Defense-architecture gate (DESIGN.md §14): the mechanism registry is
# exhaustive (every mechanism addressable and round-tripping through
# the stack parser), the legacy 11-strategy matrix/sweep renders and
# canonical spec hashes are byte-identical to the pinned goldens, and
# the two post-paper mechanisms (recompute, isolate) each close their
# previously leaking cell at reduced trial counts.
defense-check:
	$(GO) test ./internal/defense -count=1
	$(GO) test ./internal/scenario -run 'TestDefenseMatrixGolden|TestDefenseSweepGolden|TestSpecHashesGolden' -count=1

# Experiment-server gate: build cmd/vpserver, then run the end-to-end
# suite against an in-process instance — submit→poll→fetch, cache-hit
# byte identity, singleflight, admission control, drain — plus the
# VPSERVER_FULL-gated acceptance runs: the full registry (including
# the 978 cachebench entries) batched cold and re-batched hot (all
# cache hits). See docs/SERVER.md.
server-check:
	$(GO) build -o /dev/null ./cmd/vpserver
	VPSERVER_FULL=1 $(GO) test ./internal/server -count=1

# Scenario registry gate: every registered spec validates, round-trips
# through JSON byte-for-byte, matches the committed golden registry
# (testdata/registry.json; -update moves it deliberately), hashes
# stably across its own serialization, and executes byte-identically
# at every -jobs level (see internal/scenario).
scenarios:
	$(GO) test ./internal/scenario -run 'TestRegistryGolden|TestRoundTrip|TestRegistryCoverage|TestRegisteredScenariosExecute|TestRegistryHashRoundTrip|TestRegistryExecuteJobsInvariance' -count=1

# Cache-vulnerability benchmark gate: the three-step taxonomy package
# (enumeration, lowering, statistics) plus the golden-pinned
# `vpreport -scenario cachebench-matrix` artifact. The shrunk curated
# matrix runs always; CACHEBENCH_FULL=1 additionally evaluates all 976
# enumerated cases at the paper's sample size. The goldens hold only
# while internal/xrand, the trials' jitter generator, reproduces
# math/rand's stream, so its equivalence tests run here too.
cachebench:
	$(GO) test ./internal/xrand -count=1
	$(GO) test ./internal/cachebench -count=1
	$(GO) test ./internal/scenario -run 'TestCacheMatrixGolden|TestCacheMatrixHashJobsInvariant' -count=1

# Steady-state allocation budgets of the simulator hot loop, the
# trial driver and the cache-suite trial (DESIGN.md §10), and of a
# vpserver cache hit (DESIGN.md §13): TestHitAllocBudget bounds what a
# hit allocates per request, TestHitRetention what it keeps on the
# heap for the server's lifetime. Runs without -race: the race
# detector instruments allocations and the tests exclude themselves
# under that build tag.
alloc-budget:
	$(GO) test ./internal/cpu -run TestMachineRunSteadyStateAllocs -count=1
	$(GO) test ./internal/attacks -run TestTrialDisabledPathAllocs -count=1
	$(GO) test ./internal/cachebench -run TestTrialAllocs -count=1
	$(GO) test ./internal/server -run 'TestHitAllocBudget|TestHitRetention' -count=1

# Bitmap-scheduler ordering gate: within a cycle, issue must stay
# strictly oldest-first (the contract the old seq-sorted ready list
# enforced by construction), with scoreboard⟺entry invariant
# cross-checks on, over a hazard-biased progen corpus.
sched-order:
	$(GO) test ./internal/cpu -run TestIssueOrderOldestFirst -count=1

# Differential oracle: every generated program must commit the same
# state in the same order as the in-order reference model, on every
# machine spec. A failure prints the generator seed (a complete
# reproducer) and a shrunk program.
diff:
	$(GO) test ./internal/oracle -run 'TestDiff|TestGolden' -count=1

# Coverage-guided differential fuzzing over (generator seed, machine
# spec) pairs, time-boxed. The corpus is checked in under
# internal/oracle/testdata/fuzz.
fuzz:
	$(GO) test ./internal/oracle -run '^$$' -fuzz FuzzDiffOracle -fuzztime $(FUZZTIME)

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$

# Documentation gate: vet, formatting, and doc coverage of the
# experiment surface (every exported symbol in the runner, attacks,
# report, oracle, progen, scenario, obs, server, cachebench, defense,
# isa, locality and xrand packages must carry a doc comment — godoc is
# the reference documentation the experiments guide links into). -api
# keeps docs/SERVER.md aligned with the routes internal/server actually
# registers.
docs: vet
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi
	$(GO) run ./tools/doccheck -api docs/SERVER.md:internal/server ./internal/runner ./internal/attacks ./internal/report ./internal/oracle ./internal/progen ./internal/scenario ./internal/obs ./internal/server ./internal/cachebench ./internal/defense ./internal/isa ./internal/locality ./internal/xrand
