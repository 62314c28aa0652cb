# Distributed Data Persistency — build and reproduction targets.

GO ?= go

.PHONY: all build check test vet fmt bench perf census footprint scalecost experiments examples clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Formatting gate: gofmt -l must print nothing.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# Full gate: vet, gofmt and the test suite under the race detector. The
# parallel sweep runner makes every experiment concurrent, so races are
# first-class correctness bugs here. Run explicitly on top, because each is an
# equivalence proof or an exact count the rest of the tree leans on:
#   - bench/ is a module of its own (the repo benchmark), so its smoke tests
#     run from there;
#   - the allocation guards — one round per binding on warm and on rotating
#     keys, allocations per op of whole cells against per-binding ceilings,
#     construction objects per added client, the zero-allocation request
#     record (routed, open-loop and batched paths), and the pending-write
#     records a coordinator holds under transactional conflicts;
#   - the barrier-arrival differential: both engines schedule cross-node
#     arrivals with AtArrival, the sequential one at send time and the LP one
#     at epoch barriers, and the (src, seq) key alone fixes their order;
#   - the NIC fast-path differential and its event-reduction pin: the one
#     elision mechanism left (Engine.TryAdvance from delivery.arrive) changes
#     event counts only, with an exact ledger;
#   - the routing report and sharded differentials, and the placement golden
#     seeds: every cell routes client ops through per-node routers (Shards=0
#     wires one all-servers shard and reports no routing), the topology
#     re-routes them across replica groups, and the skew-adaptive policies
#     (load placement, replica reads, batched forwarding) re-place
#     coordinators from sender-local state (fwdbatch=0 byte-identity rides on
#     the goldens and the schedule fingerprint's 16-shard cells);
#   - the exact schedule fingerprint (28 cells: every binding on a deep-queue
#     flat cell, one 16-shard cell, one open-loop cell and one 16-shard cell
#     over a slower cross-shard spine) and the pool's FIFO re-acquire pin: a
#     dispatch reorder the two-decimal goldens cannot see moves an exact
#     counter here;
#   - per-node state that does not grow with the cluster: the NIC send path
#     against its per-pair-table oracle (arrival time and in-flight count
#     after every send), simnet.New's bytes at 320 vs 40 nodes, the ring's
#     owner table against its vnode search, and the shared payload-box pool's
#     spares against the peak of messages in flight;
#   - memory that scales with use: one measurement set per engine (and one
#     scope histogram per set, on first use), a cluster's retained heap per
#     added node at 160 vs 40 nodes, the hash table's 24-byte slot, its
#     value entries (Get returns the stored slice; entries never outnumber
#     live keys; one shared value is held once), its size under Put/Delete
#     churn, every key across its same-size rebuilds, its zero-allocation
#     Put+Get loop, and the histogram's bucket index against the bit-loop
#     oracle;
#   - one iteration of the cluster-construction benchmark, against bit-rot;
#   - the capacity and scaling sweeps at quick scale, flat and sharded;
#   - the CLI rejecting a knob no cell of the experiment can honor
#     (-fwdbatch needs a sharded topology; table1 is unsharded).
check: vet fmt
	$(GO) test -race ./...
	(cd bench && $(GO) test .)
	$(GO) test ./internal/protocol/ -run 'HotPathAllocs|TestRoundAllocsAcrossBindings|TestPendingWritesBounded'
	$(GO) test ./internal/cluster/ -run 'TestCellAllocsPerOp|TestConstructionObjectsPerClient|TestRoutedClientZeroAlloc|TestOpenLoopSessionPoolZeroAlloc|TestFwdBatchZeroAlloc'
	$(GO) test -race ./internal/sim/ -run TestBarrierArrivalsMatchSendTime
	$(GO) test -race ./internal/cluster/ -run 'TestNICFastPathDifferential|TestNICFastPathEventReduction'
	$(GO) test -race ./internal/cluster/ -run 'TestFlatRoutingReport|TestSharded'
	$(GO) test -race ./internal/cluster/ -run 'TestHotSketchGoldenSeed|TestP2CSpreadDeterministic'
	$(GO) test ./internal/cluster/ ./internal/sim/ -run 'TestScheduleFingerprint|TestPoolReacquireFromCompletionQueuesBehindBacklog'
	$(GO) test ./internal/simnet/ ./internal/cluster/ -run 'TestRelTrackerMatchesFullScan|TestNewFootprintLinearInNodes|TestRingOwnerTableMatchesSearch|TestBoxPoolSharedAcrossReplicas'
	$(GO) test ./internal/cluster/ ./internal/engines/ ./internal/stats/ -run 'TestMeasurementSetPerEngine|TestScopeHistogramAllocatedOnFirstUse|TestRetainedHeapLinearInNodes|TestHashTableSlotSize|TestHashTableGetReturnsStoredSlice|TestHashTableSharedValueHeldOnce|TestHashTableInternedWithinLiveKeys|TestHashTableChurnBounded|TestHashTableRebuildKeepsEveryKey|TestHashTableOpAllocFree|TestBucketIndexMatchesLoopOracle'
	$(GO) test -run='^$$' -bench BenchmarkClusterNew -benchtime=1x -benchmem .
	$(GO) run ./cmd/ddpbench -exp capacity -quick > /dev/null
	$(GO) run ./cmd/ddpbench -exp capacity -quick -shards 4 > /dev/null
	$(GO) run ./cmd/ddpbench -exp scaling -quick > /dev/null
	$(GO) run ./cmd/ddpbench -exp scaling -quick -placement load > /dev/null
	! $(GO) run ./cmd/ddpbench -exp table1 -quick -fwdbatch 8

# One testing.B benchmark per paper table/figure plus engine micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# The repo benchmark (BENCHMARK.json): host cost and simulated results of the
# four pinned workloads, end to end and per layer. See bench/README.md.
perf:
	bash bench/run.sh

# Exact allocation censuses: -memprofile samples every object
# (runtime.MemProfileRate = 1), so the top-40 sites are counts, not
# estimates. The first table is the quick Figure 6 matrix, the second one rep
# of the repo benchmark's scale160 workload (both cells: New, Run, Collect;
# TestScaleCensus). EXPERIMENTS.md "Allocation census" and "Allocation-free
# client ops" read these tables.
census:
	mkdir -p .bench_build
	$(GO) run ./cmd/ddpbench -exp fig6 -quick -parallel 1 -memprofile .bench_build/census.mprof > /dev/null
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=40 .bench_build/census.mprof
	SCALE_CENSUS=1 $(GO) test ./internal/cluster/ -run '^TestScaleCensus$$' -count=1 -memprofilerate 1 -memprofile .bench_build/scale_census.mprof -o .bench_build/cluster.test > /dev/null
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=40 .bench_build/cluster.test .bench_build/scale_census.mprof

# Live heap of the repo benchmark's scale160 <Ev,Ev> cell, the memory twin of
# census: the cell is built and run, a collection is forced with the cluster
# still live (the state live_heap_mb samples), and the exact in-use heap
# profile (runtime.MemProfileRate = 1) prints its top-20 sites by bytes.
# EXPERIMENTS.md "Per-node state" reads this table.
footprint:
	mkdir -p .bench_build
	FOOTPRINT_PROFILE=$(CURDIR)/.bench_build/footprint.pprof $(GO) test ./internal/cluster/ -run '^TestFootprintProfile$$' -count=1 -v
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=20 .bench_build/footprint.pprof

# Host cost of one simulated event at 40, 160 and 320 nodes (the scaling
# study's <Ev,Ev> cell, Shards = N/5): ns/event should not climb with N.
# EXPERIMENTS.md "Per-node state" reads this table.
scalecost:
	$(GO) test -run '^$$' -bench BenchmarkEventCostBySize -benchtime 5x ./internal/cluster/

# Regenerate every table and figure at paper scale (takes tens of minutes
# on one core; add -quick for a smoke run).
experiments:
	$(GO) run ./cmd/ddpbench -exp all | tee results/full.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialfeed
	$(GO) run ./examples/banking
	$(GO) run ./examples/crashcourse
	$(GO) run ./examples/modelpicker -reads 0.9 -staleness-ok
	$(GO) run ./examples/anatomy

clean:
	$(GO) clean ./...
