GO ?= go

.PHONY: build test race lint fuzz-smoke bench bench-smoke replay-smoke durability shard-diff paged-diff wal-diff check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Project-specific static analysis (internal/lint via cmd/grovevet). Two
# tiers: per-function syntax/type checks (the colstore lock protocol, dropped
# errors, fsio-mediated persistence I/O, metric naming, the stdlib-only
# dependency policy, sync/atomic hygiene) and interprocedural dataflow over a
# module-wide call graph (context threading, goroutine join/recovery, lock
# ordering and blocking-under-lock, compiler-verified allocation-free
# //grove:hotpath functions). Exits non-zero on findings; -deadline doubles
# as the lint-runtime smoke — the whole suite, including the hotalloc
# `go build -gcflags=-m` pass, must finish inside 30s or the gate fails.
lint:
	$(GO) run ./cmd/grovevet -deadline 30s

# Race-detector gate for the concurrent read path: vet everything, then run
# the packages that share state across goroutines (engine scratch pool,
# sharded result cache, relation RWMutex, registry, metrics endpoint, view
# advisor, graphdb facade, fault-injection FS, scatter-gather coordinator)
# plus the root facade.
race:
	$(GO) vet ./...
	$(GO) test -race . ./internal/query/... ./internal/bitmap/... \
		./internal/colstore/... ./internal/obs/... ./internal/view/... \
		./internal/graphdb/... ./internal/fsio/... ./internal/shard/... \
		./internal/wal/...

# Short fuzz pass over every decoder that consumes untrusted bytes: the
# bitmap wire format, the query parser, the colstore on-disk format, the
# CURRENT generation pointer, and the write-ahead log (op payloads and whole
# log files fed to the replay scanner).
fuzz-smoke:
	$(GO) test ./internal/bitmap/ -fuzz FuzzReadFrom -fuzztime 3s
	$(GO) test ./internal/query/ -fuzz FuzzParse -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzMeasureColumnRoundTrip -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzReadMeasureColumn -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzLoadCorrupt -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzDecodeBlock -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzBlockIndex -fuzztime 3s
	$(GO) test ./internal/colstore/ -fuzz FuzzCurrentPointer -fuzztime 3s
	$(GO) test ./internal/wal/ -fuzz FuzzWALRecord -fuzztime 3s
	$(GO) test ./internal/wal/ -fuzz FuzzWALReplay -fuzztime 3s

bench:
	$(GO) test -run xxx -bench . ./...

# One-iteration pass over the path-aggregation benchmarks: proves the
# vectorized measure path still builds, runs, and stays allocation-bounded
# without paying for a full benchmark run. The checked-in baseline is
# BENCH_pathagg.json (regenerate with
# `go test ./internal/query/ -run '^$$' -bench PathAgg -benchtime 5x`).
# The obs-overhead guard holds metrics+tracing near the <5% EXPERIMENTS.md
# expectation (10% tripwire budget: noise headroom on a contended box).
bench-smoke:
	$(GO) test ./internal/query/ -run '^$$' -bench PathAgg -benchtime 1x
	$(GO) test ./internal/shard/ -run '^$$' -bench Sharded -benchtime 1x
	$(GO) test ./internal/bench/ -run TestObsOverheadSmoke -count=1 -v

# The workload record→replay round trip at smoke scale: capture a mixed
# workload on a single-shard store and replay it against 1/2/4-shard stores,
# requiring every replayed answer's digest to match the recording
# (grovebench exits non-zero on any mismatch).
replay-smoke:
	$(GO) run ./cmd/grovebench -exp replay -ny 2000 -q 20

# The durability gate: crash Save at every injected I/O fault (with and
# without torn writes) and prove Load always recovers a complete snapshot —
# single-relation and sharded-manifest protocols both — then exercise
# recovery, GC, rollback and cancellation paths.
durability:
	$(GO) test ./internal/colstore/ -run \
		'TestSaveFaultSweep|TestLoadFallbackRecovery|TestSnapshotGCKeepCount|TestGenerationsInventoryAndRollback|TestConcurrentSaveLoadMutate' -v
	$(GO) test ./internal/shard/ -run \
		'TestShardedSaveFaultSweep|TestShardedRepeatedCrashedSavesKeepRollbackCut|TestShardedSaveLoadRoundTrip' -v
	$(GO) test ./internal/query/ -run 'Cancel|Batch' -v
	$(GO) test . -run 'TestStoreContextCancelled|TestStoreExecuteBatchContextCancelled|TestStoreBatchPanicIsolated' -v

# The sharding differential gate: the same workloads through a bare
# single-relation engine and 1-shard and N-shard coordinators must produce
# bit-identical answers (bitmaps, aggregate values including NaN/signed-zero,
# scan totals, tag groups), at the coordinator and at the public API; and a
# query must record the same trace and slow-log shape for 1 shard as for N.
shard-diff:
	$(GO) test ./internal/shard/ -run 'TestDifferential' -v
	$(GO) test . -run 'TestShardedPublicDifferential|TestShardedTraceTree|TestSlowQueryLogThroughStore' -v

# The paged-storage differential gate: a saved-and-reloaded paged store must
# return bit-identical answers to the in-memory store it was saved from —
# signed zeros, ±MaxFloat64, denormals, deletions, all four block encodings,
# single-shard and sharded, at pool budgets down to 1% — with the zone-skip
# scalar plan engaged, the multi-block crash sweep green, and the hot
# block-decode/zone-skip kernels allocation-free.
paged-diff:
	$(GO) test . -run 'TestPagedBitIdentical|TestPagedZoneSkipEngages|TestPagedShardedBitIdentical' -v
	$(GO) test ./internal/colstore/ -run \
		'TestSaveFaultSweepMultiBlock|TestDecodeBlockAllocs|TestAggregateSkipAllocs' -v

# The write-ahead-log gate: crash WAL-logged ingest and checkpoints at every
# injected I/O fault (plain and torn-write modes) and prove recovery always
# lands on a clean prefix of the op sequence — every fsync-acknowledged op
# present, no partial op applied, sharded recovery bit-identical to
# single-shard, views maintained incrementally matching a from-scratch
# rebuild — plus the frame/scan unit suite and the snapshot-GC crash sweep
# the checkpoint's truncation ordering leans on.
wal-diff:
	$(GO) test . -run \
		'TestWALFaultSweep|TestShardedWALFaultSweep|TestWALCheckpointFaultSweep|TestIncrementalViewDifferential|TestOpenDurableLifecycle|TestShardedLoadManifestFallbacks|TestWALGenMismatchSkipped' -v
	$(GO) test ./internal/wal/ -count=1
	$(GO) test ./internal/colstore/ -run 'TestSaveFaultSweepSnapshotGC' -v

# The full gate CI runs: vet, lint, build, tests — the root module's and the
# ledger's (ledger/ is its own module, which the root ./... skips, built
# against this checkout) — the durability sweep, then the race-detector pass
# (which re-vets; harmless and keeps `make race` self-contained).
check:
	$(GO) vet ./...
	$(MAKE) lint
	$(GO) build ./...
	$(GO) test ./...
	cd ledger && $(GO) vet ./... && $(GO) test ./...
	$(MAKE) bench-smoke
	$(MAKE) replay-smoke
	$(MAKE) durability
	$(MAKE) shard-diff
	$(MAKE) paged-diff
	$(MAKE) wal-diff
	$(MAKE) race
