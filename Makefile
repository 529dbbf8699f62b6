GO ?= go

.PHONY: all vet vet-cross build test race race-split fuzz ci fmt-check docs-check pm-door benchmark-check bench bench-smoke bench-gate bench-once

all: ci

vet:
	$(GO) vet ./...

# vet-cross vets the tree for three targets the host build does not compile:
# linux/arm64 (obs's getg assembly, which the descriptor key reads),
# linux/riscv64 (neither amd64 nor arm64, where obs.GoShard is 0) and
# darwin/arm64 (pmem's page advice where there is no madvise). It adds
# ≈ 2 s to `make ci` with a warm build cache, ≈ 60 s cold (the standard
# library compiled for each target), on a 2-CPU box.
vet-cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=riscv64 $(GO) vet ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-split repeats the tests that race writers and readers against segment
# splits — the locked copy and publish, rollback, splits of distinct segments
# in parallel, a second claimant against a publish in flight — the
# first-touch races on a segment's owner lock, the lock a split holds, and
# the tests that crash what a split's DRAM-only sweep leaves in PM (an insert
# into a stale slot, its torn lines, a first touch after a clean reopen, a
# second split, stash records on both sides of a split), what the stash
# count recovery recomputes rests on (a spill, a stash delete), writers
# in flight on lines two bucket locks share (WritersInFlight), or the
# epoch-guard contract (Guard: readers of blobs that copy-on-write updates
# free and reuse at once, the re-check of a slot after a lazy guard entry,
# every guard slot held) five times under the race detector: a split's
# interleavings are timing, and one pass of `race` samples few of them. It
# then repeats, ten times, the service tier's concurrency tests — many
# clients running requests on one shard's table at once (64 clients on 2
# procs, mixed ops racing splits), Submits racing Close and refused after
# it, and four clients writing while a crash image is taken.
race-split:
	$(GO) test -race -count=5 -run 'Split|WriterHistory|MovedHalf|LeakedSibling|PoolFullMidSplit|SecondClaimant|StaleSlot|FirstTouchAfterClean|LazyFirstTouch|Stash|WritersInFlight|Guard' ./internal/core
	$(GO) test -race -count=10 -run 'Oversubscribed|PipelinedMixedOps|SubmitCloseRace|RefusesAfterClose|CrashMidBatch' ./internal/service

# fuzz runs each of the tree's fuzz targets for a fixed 10 s, one at a time
# (go test fuzzes one target per invocation); plain `go test` runs only their
# seed corpora. A failing input is written under the package's
# testdata/fuzz/<target>/ and fails the target.
FUZZ_TARGETS = internal/core:FuzzFPMatches internal/core:FuzzRecordWord \
	internal/core:FuzzOpenDirectory internal/core:FuzzFirstTouch \
	internal/pmem:FuzzBlobHeader internal/pmem:FuzzLogSweep internal/hashfn:FuzzHash
fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t#*:}; \
		echo "fuzz $$name (./$$pkg, 10s)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime 10s ./$$pkg; \
	done

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# docs-check enforces the documentation layer: go vet over everything (it
# flags malformed doc comments), a missing-package-comment lint — every
# package directory must have at least one file opening with a "// Package"
# (or, for main packages, "// Command") doc comment — an exported-identifier
# doc lint on every package under internal/ (every top-level exported
# func/type/const/var and exported method must carry a doc comment), and a
# stale-reference check that greps the prose docs for identifiers that no
# longer exist in the code.
docs-check: vet
	@missing=$$($(GO) list -f '{{.Dir}} {{join .GoFiles " "}}' ./... | \
	while read -r dir files; do \
		ok=0; \
		for f in $$files; do \
			if grep -qE '^// (Package|Command) ' "$$dir/$$f"; then ok=1; break; fi; \
		done; \
		if [ $$ok -eq 0 ]; then echo "  $$dir"; fi; \
	done); \
	if [ -n "$$missing" ]; then \
		echo "packages missing a package doc comment:"; echo "$$missing"; exit 1; \
	fi
	@undoc=$$(for f in $$(find internal -name '*.go' | sort); do \
		case "$$f" in *_test.go) continue;; esac; \
		awk -v file="$$f" ' \
			/^(func|type|const|var) [A-Z]/ || /^func \([^)]*\) [A-Z]/ { \
				if (prev !~ /^\/\//) print file ":" FNR ": " $$0 } \
			{ prev = $$0 }' "$$f"; \
	done); \
	if [ -n "$$undoc" ]; then \
		echo "exported identifiers missing doc comments:"; echo "$$undoc"; exit 1; \
	fi
	@stale=$$(for ident in mirrorRebuildAll RunService ServiceConfig ServiceResult toSvcCell cellJSON \
			popSlot pushSlot freeHead 'filters\.m' \
			segSearchOpt bucketSearchOpt PathPMFallback CreateWith OpenWith blobHot 'core\.Deps' \
			closeMu failPending \
			assistInsert assistDelete assistOverwrite splitSibling splitCopyStashSlot segFindW0Locked \
			probeOfRecord recSameIdentity splitAssists \
			segClaims bucketFindLocked segFindLocked recProbe findTrackedSlot \
			validateRoute mirrorRepair mirrorMaybeCheck mirrorBucketMatchesPM mirrorSampleMask CompareAndSwapU64 \
			rangeStore QuietReadU64 QuietZero KeyEqualsU64 KeyEqualsPrefetch \
			verifyLogLive verifyCacheCoherent mirrorVerifyAll WalkBlobs ResetStats \
			sumStats deriveRates SegFilterChecks DirCacheRebuilds schemaAdditions 'read\.path' \
			blobCommitMagic hookVarCommitted \
			hookAfterMarker hookAfterSegPersist hookMidPublish hookAfterPublish hookMidSweep \
			hookVarAppended hookVarMidUpdate DASH_CRASH_SWEEP mirBkWords \
			hookMidMigrate splitRecopies pauseFirstCopy \
			metaFindTracked bucketTrackOverflow bucketUntrackOverflow stashReachable \
			maxOvSlots ovIdxGet metaOvCount \
			pmMeta metaPersisted hdrLineSlots metaLastFree stale_meta_persists header_line \
			TestMirrorHeaderPairsShareALine \
			segOffSplit splitStateInFlight segRecDone segRecPending segRecInFlight markerWords \
			TestCrashAfterSplitMarker \
			splitScan splitScanPool splitCand segSweep dedupeSegment EvSplitCAS dangling_slots \
			ReadBytes keyBytes updateOp deleteOp \
			bkOffPadding bkOffRecords bkOffTail segBucket recordAddr mirrorFillBucket fillPadding \
			TestOpenNeverReadsBucketPadding AdvanceEvery maxPending \
			reqParked ScaledOptane CostScale \
			cacheRebuild descFor 'dircache\.rebuilds' opSampleMask \
			BeginFenceBatch EndFenceBatch AbortFenceBatch waitStep parkAfterYields execBatch \
			adviseHugePages TestVarLogRecoverTornHeader goShard; do \
		hits=$$(grep -rn "$$ident" README.md ARCHITECTURE.md ROADMAP.md 2>/dev/null); \
		if [ -n "$$hits" ] && ! grep -rqw "$$ident" --include='*.go' .; then \
			echo "$$hits"; \
		fi; \
	done); \
	if [ -n "$$stale" ]; then \
		echo "docs reference identifiers that no longer exist:"; echo "$$stale"; exit 1; \
	fi
	@echo "docs-check: all packages documented, internal/ exports documented, no stale doc references"

# benchmark-check vets and tests the repo benchmark, a module of its own
# (benchmark/go.mod) that `./...` from the root does not reach: the only
# build of benchmark/engine.go, the one file through which the benchmark
# calls this repository, so the only proof that an API removal left it
# compiling (benchmark/README.md lists the calls it needs).
#
# benchmark/ is frozen so that every change is measured by the same code,
# and one assertion in it predates a table that reads no PM metadata:
# TestShortRuns requires every end-to-end metric to be > 0, while
# pm_read_bytes_per_op is exactly 0 on the u64 workloads (and
# pm_traffic_bytes_per_op on read_u64). TestShortRuns therefore runs on its
# own, and the target accepts its failure only when every line it prints is
# one of those two PM byte metrics reading exactly 0 with its unit present;
# any other assertion, a panic or a build error fails the target. Every
# other test of the module must pass outright.
BENCHMARK_PM_ZERO = ^    bench_test\.go:[0-9]+: [a-z0-9_]+: end-to-end pm_(read|traffic)_bytes_per_op = \{Value:0 Unit:B/op\}, present true$$
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test -skip '^TestShortRuns$$' ./...
	@out=$$(cd benchmark && $(GO) test -count=1 -run '^TestShortRuns$$' ./... 2>&1); status=$$?; \
	echo "$$out"; \
	if [ $$status -ne 0 ]; then \
		other=$$(echo "$$out" | grep -vE '$(BENCHMARK_PM_ZERO)' | \
			grep -vE '^(--- FAIL: TestShortRuns \([0-9.]+s\)|FAIL|FAIL[[:space:]]+dash/benchmark[[:space:]]+[0-9.]+s)$$'); \
		if [ -n "$$other" ] || ! echo "$$out" | grep -qE '$(BENCHMARK_PM_ZERO)'; then exit 1; fi; \
		echo "benchmark-check: TestShortRuns failed only on PM byte metrics reading exactly 0 (accepted)"; \
	fi

# bench-smoke is a seconds-long fixed configuration proving the whole
# dashbench pipeline (workload → harness → CLI → JSON) end to end; the cost
# model is off (-model=false) so it measures nothing, it only has to run.
# delete-heavy exercises the epoch-reclamation meters, -recovery the
# snapshot→reopen timing path, and -shards 2 the service tier (shards +
# frontend, each of the six mixes at 1 shard and at 2).
bench-smoke:
	$(GO) run ./cmd/dashbench -only -mix balanced,read,read-neg,var-insert,var-read,delete-heavy -threads 2 \
		-ops 8000 -keyspace 8192 -model=false -recovery -shards 2 \
		-out $${TMPDIR:-/tmp}/BENCH_smoke.json

# bench-gate is the perf-regression gate: seven fixed seeded cells, all but
# the restart cell ("model": false) under the full cost model (u64 and
# variable-length inserts and reads, negative reads, a restart, one
# service-tier cell), checked against the thresholds
# committed in bench-gate.json (tail latency, PM traffic per op,
# load-factor floor).
# Fails the build when a tracked metric regresses past them; update the
# thresholds in the same PR as an intentional perf change. The observability
# layer (registry counters, flight recorder with its sampled op lane) has no
# off switch and runs inside the gated cells, so passing on unchanged
# thresholds doubles as the proof that instrumentation overhead stays in the
# noise.
bench-gate:
	$(GO) run ./cmd/benchgate -config bench-gate.json

# bench-once runs every microbenchmark under internal/ for one iteration, so
# the benchmarks performance claims rest on (the probe by slot position, Get
# hit and miss, routing, the cost model's charges, the frontend round trip)
# keep building and running; it measures nothing. The shared 1M-key read
# table is built once, so the whole target takes ≈ 7 s on a 2-CPU box (warm
# build cache).
bench-once:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# bench is the real measurement matrix (core mix suite plus the
# variable-length mixes × 1..8 threads under the full Optane cost model,
# plus the service-tier suite: every one of those mixes with 8 clients at 4
# shards against its 1-shard baseline), recovery timings included. It writes
# $(BENCH_OUT) — by default the git-ignored BENCH_local.json; ROADMAP.md's
# "Measured baselines" keeps the trajectory of earlier runs, so name a new
# file to bank one: make bench BENCH_OUT=BENCH_banked.json
BENCH_OUT ?= BENCH_local.json
bench:
	$(GO) run ./cmd/dashbench -threads 8 -ops 100000 -keyspace 100000 \
		-mix var-insert,var-read,var-ycsb-b -recovery \
		-shards 4 -out $(BENCH_OUT)

# pm-door fails if a PM store can bypass the pool's one door
# (internal/pmem/access.go): nothing under internal/ outside that file
# indexes the arena or takes a pointer into it, and nothing copies into a
# QuietBytes view — a store through a raw view would be neither charged nor
# crash-tracked. It also fails if anything names a PM read-modify-write: PM
# holds no runtime state, so every PM word is written by a plain store whose
# value was decided in DRAM (the pool has no CAS or add to offer).
pm-door:
	@hits=$$(grep -rnE 'p\.data\[|p\.base\(' internal/ | grep -v '^internal/pmem/access\.go:'; \
		grep -rnE 'copy\([^,]*QuietBytes\(' internal/; \
		grep -rnE 'CompareAndSwapU64|AddU64' internal/); \
	if [ -n "$$hits" ]; then \
		echo "PM store outside the door, or a PM read-modify-write, under internal/:"; echo "$$hits"; exit 1; \
	fi

# ci is the gate every change must pass: vet, vet for three other targets
# (vet-cross), build, the full test suite plain (the tests that bound wall
# time from above — the cost model's accuracy and bandwidth plateau — skip
# themselves under the race detector, which multiplies the cost of a spin
# loop) and under the race detector (the
# concurrency tests rely on it; the cost model's never-under-charge half
# runs here too), the docs lint, the PM door grep, the repo
# benchmark's own vet and tests, one pass of every microbenchmark, the
# dashbench pipeline smoke, and the perf-regression gate.
ci: fmt-check vet vet-cross build test race docs-check pm-door benchmark-check bench-once bench-smoke bench-gate
