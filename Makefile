GO ?= go

# Per-target budget for `make fuzz`. PRs run a short smoke; the
# nightly CI job raises it (see .github/workflows/ci.yml).
FUZZTIME ?= 10s

.PHONY: check layering run-names build test vet race check-fault check-service check-journal check-diff check-obs check-overhead check-bits check-ii check-sat check-load check-cluster docs fuzz

# The repository's verification gate: formatting + godoc contract, vet,
# build everything, then the full test suite with the race detector
# (the parallel pipeline and harness paths all run under it, and so
# does the mapping identity gate, TestIdentityGolden in
# internal/bench), plus, without it, the observability overhead guards
# (they compare wall times), the allocation-count guards (the detector's
# instrumentation allocates: TestResolveAllocs in internal/service,
# TestTransferProbeDoesNotAllocate and
# TestMapAllocationsDoNotScaleWithAttempts in internal/ultrafast,
# TestSearchSinkDoesNotAllocate in internal/spr — all four also run in
# plain `go test ./...`), the full-scale eigensolver oracle (minutes
# under it) and the II ensemble golden (192 mapper runs; it skips
# under the detector). Every `-race` line of the check-* targets below
# is a subset of `race` — the fault-injection matrix, the service-layer
# contracts, the crash-safety suite, the SAT mapper contracts, the
# load/soak SLO suite and the fleet/cluster contracts
# all run there, once — so the targets stay as named slices for local
# use instead of running again here.
check: docs layering run-names vet build race check-overhead check-bits check-ii

# The layering guard: everything downstream of a mapping (simulator,
# configuration generator, renderer) and the oracle that judges it must
# stay independent of the mappers they check and of the pipeline; and
# the shared binary framing (internal/wire) stays a stdlib-only leaf
# every codec can import.
layering:
	@bad=$$($(GO) list -deps ./internal/sim ./internal/config ./internal/viz ./internal/verify | \
		grep -E 'internal/(spr|ultrafast|satmap|core)$$'); \
	if [ -n "$$bad" ]; then echo "layering: a mapping consumer links" $$bad; exit 1; fi
	@bad=$$($(GO) list -deps ./internal/wire | grep 'panorama/internal/' | grep -v 'internal/wire$$'); \
	if [ -n "$$bad" ]; then echo "layering: internal/wire is a stdlib-only leaf but links" $$bad; exit 1; fi

# The -run guard: every alternative of every `-run '...'` pattern in
# this Makefile that is a plain test name must be the prefix of some
# `func Test...` in the repository, so deleting or renaming a test can
# never silently empty one of the check-* slices below.
run-names:
	@bad=; for alt in $$(grep -o "\-run '[^']*'" Makefile | sed -e "s/^-run '//" -e "s/'$$//" | \
		tr '|' '\n' | grep -E '^Test[A-Za-z0-9_]*$$' | sort -u); do \
		grep -rqE "^func $$alt" --include='*_test.go' --exclude-dir=.bench_build . || bad="$$bad $$alt"; \
	done; \
	if [ -n "$$bad" ]; then echo "run-names: no func Test... matches -run alternative(s):$$bad"; exit 1; fi

# The documentation contract: everything gofmt-clean, and every
# exported symbol in the audited packages carries a doc comment
# (cmd/doccheck). OBSERVABILITY.md documents the metric and span
# inventory these packages emit.
docs:
	@fmtout=$$(gofmt -l .); if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) run ./cmd/doccheck ./internal/core ./internal/dfg ./internal/verify \
		./internal/service ./internal/failure ./internal/obs ./internal/journal \
		./internal/sat ./internal/satmap ./internal/loadtest ./internal/cluster \
		./internal/arch ./internal/spr ./internal/ultrafast ./internal/sim ./internal/config ./internal/mrrg \
		./internal/ilp ./internal/kmeans ./internal/linalg ./internal/spectral ./internal/clustermap ./internal/pool \
		./internal/wire

# The observability contracts: span-tree well-formedness under 16
# concurrent requests, /metricsz exposition-format validity and the
# drain-time flush regression under the race detector, plus the
# overhead guards.
check-obs: check-overhead
	$(GO) test -race ./internal/obs/ ./internal/obs/obstest/

# The no-op and tracing overhead guards compare wall times and the
# allocation guards count mallocs, so they run without the race
# detector — the checks `race` does not subsume.
check-overhead:
	$(GO) test -run 'TestNoopOverhead|TestTraceOverheadBounded|TestStageSpansSumToWallTime' ./internal/core/
	$(GO) test -run 'TestResolveAllocs|TestTransferProbeDoesNotAllocate|TestMapAllocationsDoNotScaleWithAttempts|TestSearchSinkDoesNotAllocate' ./internal/service/ ./internal/ultrafast/ ./internal/spr/

# The eigensolver's bit-for-bit oracle on hand-shaped matrices, the
# twelve kernels at scales 0.25 and 0.5, and the benchmark's full-scale
# Laplacians (n = 448..480): about 35 s of test time on two vCPUs,
# nearly all of it in the reference loops. Under the race detector the
# test stops after scale 0.25.
check-bits:
	$(GO) test -run 'TestSymmetricEigenMatchesReferenceBitForBit' ./internal/linalg/

# The II ensemble: SPR* and Pan-SPR* map the twelve kernels at quick
# scale on 8x8 with seeds 1-8, and the sorted II list per kernel, the
# II totals and the relaxations must equal
# internal/bench/testdata/ii_ensemble.golden. A minute of CPU, half
# that on two CPUs; it runs in plain `go test ./...` and skips under
# -race and -short.
check-ii:
	$(GO) test -run 'TestIIEnsembleGolden' ./internal/bench/

# The property-based differential harness: both lower-level mappers and
# the full pipeline over the seeded random-DFG corpus, every successful
# mapping re-checked by the legality oracle (and, for routed mappings,
# the cycle-accurate simulator), plus the metamorphic invariants, and
# the exactness oracle of SPR*'s pruned A* router search (every sink
# search on the corpus and the twelve kernels costs what the plain
# Dijkstra search costs, and the A* bound holds along its routes) —
# under the race detector. Already part of `race`; this
# target runs it alone.
check-diff:
	$(GO) test -race ./internal/difftest/ ./internal/verify/ ./internal/dfgen/
	$(GO) test -race -run 'TestPrunedSearchMatchesUnpruned' ./internal/spr/

# The SAT mapper contracts: the CDCL solver against brute-force
# enumeration, the CNF encoding + CEGAR loop against the legality
# oracle, and the 200-graph SAT-vs-SPR* differential (where both
# succeed, SAT II is never worse than SPR*'s but by one II lost to an
# exhausted refinement or conflict budget, on at most two graphs; an
# unsat without refinements is an encoding bug) — under the race
# detector.
check-sat:
	$(GO) test -race ./internal/sat/ ./internal/satmap/
	$(GO) test -race -run 'TestDifferentialSAT' ./internal/difftest/

# Native fuzzing, one budgeted run per target. The committed corpora
# under */testdata/fuzz seed exploration and replay as regression tests
# in every ordinary `go test` run; regenerate them with
# `go run ./cmd/gencorpus`.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzMapSPR -fuzztime $(FUZZTIME) ./internal/spr/
	$(GO) test -run '^$$' -fuzz FuzzMapUltraFast -fuzztime $(FUZZTIME) ./internal/ultrafast/
	$(GO) test -run '^$$' -fuzz FuzzSATSolve -fuzztime $(FUZZTIME) ./internal/sat/
	$(GO) test -run '^$$' -fuzz FuzzSATEncode -fuzztime $(FUZZTIME) ./internal/satmap/
	$(GO) test -run '^$$' -fuzz FuzzFingerprint -fuzztime $(FUZZTIME) ./internal/dfg/
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/dfg/
	$(GO) test -run '^$$' -fuzz FuzzServiceRequest -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzWireDecoders -fuzztime $(FUZZTIME) ./internal/service/
	$(GO) test -run '^$$' -fuzz FuzzJournalReplay -fuzztime $(FUZZTIME) ./internal/journal/

# The fault matrix: every failure site (eigensolve, k-means, ILP,
# greedy, lower mapper) is armed in turn and the pipeline must degrade
# or abort with the documented typed error; the one wall clock
# (Budgets.Total) must abort, never settle for a best-so-far, the
# eigensolve must notice a 20 ms deadline within a row of rotations, and
# every mapper must return ErrBudget on full-scale inputs (the latency
# bound of TestDeadlineLatency skips under the detector) — all under
# the race detector.
check-fault:
	$(GO) test -race ./internal/faultinject/ ./internal/failure/
	$(GO) test -race -run 'TestFaultMatrix|TestRealBudgets|TestFiredClockNeverYieldsBestSoFar|TestILPToGreedyRung|TestGreedyFailureIsTyped|TestRunRecoversPanics|TestSymmetricEigenHonoursCtx|TestDeadlineLatency' \
		./internal/core/ ./internal/clustermap/ ./internal/pool/ ./internal/linalg/

# The service contracts: exactly-once coalescing under racing clients,
# deterministic admission control, graceful-shutdown drain, typed
# failure→status-code mapping, cache persistence, the end-to-end
# cache-hit latency bound, and the shared-inputs contract
# (TestConcurrentJobsShareInputs: twenty concurrent jobs on every mapper
# family over one graph and one CGRA, each compared with an unshared
# run) — all under the race detector.
check-service:
	$(GO) test -race ./internal/service/ ./internal/dfg/

# The load/soak SLO suite: ≥200 mixed single/batch/SSE operations
# open-loop at the real pipeline with zero failures and exactly-once
# execution per fingerprint, a clean drain + journal replay mid-load
# with nothing lost or re-run, and the cmd/panoramaload binary built
# and run multi-process end to end — all under the race detector.
check-load:
	$(GO) test -race -run 'TestSoakMixedLoad|TestDrainMidLoad|TestLoadGenerator' ./internal/loadtest/

# The fleet/cluster contracts: consistent-hash ring distribution and
# minimal-remap properties, the forwarding protocol (hop guard, typed
# peer-down fallback, remote error propagation), gossip recovery and
# cache fill, webhook delivery and signing, and the 3-peer in-process
# fleet soak with its owner-kill failover e2e — all under the race
# detector.
check-cluster:
	$(GO) test -race ./internal/cluster/
	$(GO) test -race -run 'TestForward|TestOwnerRunsLocally|TestGossip|TestWebhook|TestCluster' ./internal/service/
	$(GO) test -race -run 'TestFleet' ./internal/loadtest/

# The crash-safety suite: journal append/replay/compaction invariants,
# the torn-tail property, the replay bound (MaxAttempts), and the
# service-level chaos tests — hard-drop mid-flight, reopen, every job
# completes exactly once with byte-identical results — all under the
# race detector.
check-journal:
	$(GO) test -race ./internal/journal/
	$(GO) test -race -run 'TestCrashRecovery|TestDrainRequeues|TestFailedJobsNeverCloseAdmission|TestJournalAppendFault|TestServiceRunFault' \
		./internal/service/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...
