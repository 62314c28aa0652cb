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

# Full gate: vet, gofmt, a check that every -run and -bench pattern below and
# in the CI workflow still names a test (go test -run Typo passes with "no
# tests to run"; scripts/check-run-names.sh) and the test suite under the
# race detector. The
# parallel sweep runner makes every experiment concurrent, so races are
# first-class correctness bugs here. Run explicitly on top, because each is an
# equivalence proof or an exact count the rest of the tree leans on:
#   - bench/ is a module of its own (the repo benchmark), so its smoke tests
#     run from there;
#   - the allocation guards — one round per binding on warm and on rotating
#     keys, allocations per op of whole cells against per-binding ceilings,
#     a run's objects not growing with its window where a broadcast has no
#     peer, construction objects per added client, the zero-allocation request
#     record (routed, open-loop and batched paths), the pending-write
#     records a coordinator holds under transactional conflicts, and the
#     received message read in its box (every binding, flat and sharded,
#     with spent boxes reused while messages wait for a busy worker pool);
#   - the two record recyclers every pool above runs on (sim.Slab's token
#     reuse and FIFOs, sim.FreeList's LIFO reuse, one allocation per chunk
#     and allocation-free Gets after Reserve), and the per-field errors for
#     the composed NVM device config and negative simulated costs;
#   - the LP engine against the sequential one and the 5x5 and crash goldens
#     under 4 LP workers, under the race detector again by name: the
#     receivers of a broadcast read one payload box on different goroutines
#     until each handler returns;
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
#   - the exact schedule fingerprint (53 cells: every binding on a deep-queue
#     flat cell, one 16-shard cell, one open-loop cell, the 16-shard cell
#     under <Linearizable, Synchronous>, and every binding on one server), the
#     trace-order fingerprint (each binding's sends and persists in issue
#     order, plus the strong bindings in two hybrid groups, whose replicas
#     apply remote lazy UPDs), every binding's run identical with the trace
#     on and off, the rendered timelines against their fixture, and the
#     pool's FIFO re-acquire pin: a dispatch
#     reorder the two-decimal goldens cannot see moves an exact counter here;
#   - the engine-choice fingerprint (every engine under YCSB-A and YCSB-E on
#     the small flat cell in three bindings and on the 16-shard cell, plus
#     the versions a full and a partial crash recover) and the one version
#     record per key (a replica's retained heap per added key);
#   - per-node state that does not grow with the cluster: the NIC send path
#     against its per-pair-table oracle (arrival time and in-flight count
#     after every send), simnet.New's bytes at 320 vs 40 nodes, the ring's
#     owner table against its vnode search, the shared payload-box pool's
#     spares against the peak of messages in flight, one set of record
#     recyclers per logical process (one arena for a sequential cluster's
#     replicas, one call slab per engine for its pools and devices), a whole
#     cell's objects per added node at 160 vs 40 nodes, the transaction
#     and scope tables built only where the binding writes them, the
#     bytes a closed-loop client holds (a session only under Transactional
#     consistency or Scope persistency), and every key's busy record freed
#     once the key is idle (each binding run to quiescence, flat, with
#     stray keys and under the persist-coalescing ablation);
#   - memory that scales with use: one measurement set per engine, the bytes a
#     collected Result keeps with its cluster gone, histograms that store only
#     the rows their samples reach (the fixed 64-row layout's percentiles, one
#     layout whatever the Record and Merge order, Record allocation-free in
#     its rows), a cluster's retained heap per
#     added node at 160 vs 40 nodes, the Causal reorder buffer's retained
#     bytes per buffered update (a buffered update holds its shared box), the
#     hash table's 24-byte slot, its
#     value entries (Get returns the stored slice; entries never outnumber
#     live keys; one shared value is held once), its size under Put/Delete
#     churn, every key across its same-size rebuilds, its zero-allocation
#     Put+Get loop, and the histogram's bucket index against the bit-loop
#     oracle;
#   - the binding rules: core.RulesOf's 25 rows against the literal taken
#     from the per-model policy code it replaced, Describe's message list
#     against the kinds each binding's run sends, the rendered model
#     reference against its fixture, and no binding constant named in
#     internal/protocol's code (a replica branches on its rules row only);
#   - one iteration of the cluster-construction benchmark, against bit-rot;
#   - the capacity and scaling sweeps at quick scale, flat and sharded, and
#     the durability audit's CSV form (its columns read the crash report);
#   - the CLI rejecting a knob no cell of the experiment can honor
#     (-fwdbatch needs a sharded topology; table1 is unsharded), and a
#     negative worker count (-lps, -parallel);
#   - ddpsim end to end on a small cell, once with an ordered engine profile,
#     rejecting a model name outside the 5x5 matrix, an engine name outside
#     the profile table and a negative server count, and ddpbench rejecting
#     the retired bindings experiment;
#   - the public crash API's callers: the examples/ programs and ddprecover
#     all call ddp.RunWithCrash.
check: vet fmt
	bash scripts/check-run-names.sh Makefile .github/workflows/ci.yml
	$(GO) test -race ./...
	(cd bench && $(GO) test .)
	$(GO) test ./internal/protocol/ -run 'HotPathAllocs|TestRoundAllocsAcrossBindings|TestPendingWritesBounded|TestReceivedMessageReadInItsBox'
	$(GO) test ./internal/cluster/ -run 'TestCellAllocsPerOp|TestPeerlessBroadcastTakesNoBox|TestConstructionObjectsPerClient|TestRoutedClientZeroAlloc|TestOpenLoopSessionPoolZeroAlloc|TestFwdBatchZeroAlloc'
	$(GO) test ./internal/sim/ ./internal/params/ ./internal/cluster/ -run '^(TestSlabRecyclesAndZeroes|TestSlabFIFO|TestCarveListsDoNotOverlap|TestFreeListReuse|TestFreeListAllocs|TestValidateCatchesBadValues|TestConfigValidation)$$'
	$(GO) test -race ./internal/cluster/ -run 'TestLPMatchesSequentialDifferential|TestLPWorkerCountInvariance'
	$(GO) test -race ./internal/harness/ -run 'TestGolden5x5ByteIdentical/IntraParallel=4|TestGoldenCrashByteIdentical/IntraParallel=4'
	$(GO) test -race ./internal/sim/ -run TestBarrierArrivalsMatchSendTime
	$(GO) test -race ./internal/cluster/ -run 'TestNICFastPathDifferential|TestNICFastPathEventReduction'
	$(GO) test -race ./internal/cluster/ -run 'TestFlatRoutingReport|TestSharded'
	$(GO) test -race ./internal/cluster/ -run 'TestHotSketchGoldenSeed|TestP2CSpreadDeterministic'
	$(GO) test ./internal/cluster/ ./internal/sim/ ./internal/harness/ -run 'TestScheduleFingerprint|TestTraceOrderFingerprint|TestTracingDoesNotPerturbRun|TestTimelinesGolden|TestPoolReacquireFromCompletionQueuesBehindBacklog'
	$(GO) test ./internal/cluster/ -run '^(TestEngineChoiceFingerprint|TestReplicaHoldsOneRecordPerKey)$$'
	$(GO) test ./internal/sim/ ./internal/simnet/ ./internal/cluster/ ./internal/protocol/ -run 'TestRelTrackerMatchesFullScan|TestNewFootprintLinearInNodes|TestRingOwnerTableMatchesSearch|TestBoxPoolSharedAcrossReplicas|TestRecyclersOnePerLogicalProcess|TestRunObjectsPerAddedNode|TestReplicaBuildsOnlyTheMapsItsBindingWrites|TestClientBytesPerClient|TestPendingRecordBytes|TestBusyRecordsDrainAtQuiescence'
	$(GO) test ./internal/cluster/ ./internal/engines/ ./internal/stats/ -run 'TestMeasurementSetPerEngine|TestResultBytes|TestHistogramRowsFollowSamples|TestRetainedHeapLinearInNodes|TestCausalBufferBytesPerEntry|TestHashTableSlotSize|TestHashTableGetReturnsStoredSlice|TestHashTableSharedValueHeldOnce|TestHashTableInternedWithinLiveKeys|TestHashTableChurnBounded|TestHashTableRebuildKeepsEveryKey|TestHashTableOpAllocFree|TestBucketIndexMatchesLoopOracle'
	$(GO) test ./internal/core/ ./internal/cluster/ ./internal/harness/ ./internal/protocol/ -run '^(TestRulesTable|TestDescribeMessagesMatchTraffic|TestModelReferenceFixture|TestProtocolReadsOnlyTheRulesRow)$$'
	$(GO) test -run='^$$' -bench BenchmarkClusterNew -benchtime=1x -benchmem .
	$(GO) run ./cmd/ddpbench -exp capacity -quick > /dev/null
	$(GO) run ./cmd/ddpbench -exp capacity -quick -shards 4 > /dev/null
	$(GO) run ./cmd/ddpbench -exp scaling -quick > /dev/null
	$(GO) run ./cmd/ddpbench -exp scaling -quick -placement load > /dev/null
	$(GO) run ./cmd/ddpbench -exp durability -quick -csv > /dev/null
	! $(GO) run ./cmd/ddpbench -exp table1 -quick -fwdbatch 8
	! $(GO) run ./cmd/ddpbench -exp table1 -quick -lps -5 -parallel -3
	$(GO) run ./cmd/ddpsim -servers 3 -clients 2 -measure 200000 > /dev/null
	$(GO) run ./cmd/ddpsim -servers 3 -clients 2 -measure 200000 -engine btree > /dev/null
	! $(GO) run ./cmd/ddpsim -model strong-local
	! $(GO) run ./cmd/ddpsim -engine skiplist
	! $(GO) run ./cmd/ddpsim -servers -1
	! $(GO) run ./cmd/ddpbench -exp bindings -quick
	$(MAKE) examples > /dev/null
	$(GO) run ./cmd/ddprecover > /dev/null

# One testing.B benchmark per paper table/figure plus the layer micro-benches
# (scheduler, network, NVM, hash table, ...).
bench:
	$(GO) test -bench=. -benchmem ./...

# The repo benchmark (BENCHMARK.json): host cost and simulated results of the
# four pinned workloads, end to end and per layer. See bench/README.md.
perf:
	bash bench/run.sh

# Exact allocation censuses: -memprofile samples every object
# (runtime.MemProfileRate = 1), so the top-40 sites are counts, not
# estimates. The first table is the quick Figure 6 matrix (3 servers x 4
# clients over 1 ms), the second one rep of the repo benchmark's flat_matrix
# workload (25 bindings at 5x20 plus Table 1's cells; TestFlatCensus), whose
# mix quick Figure 6 does not share, then the same rep by bytes: collections
# follow bytes allocated, not objects, and TestFlatCensus logs the rep's
# bytes and collection count. The last table is one rep of its scale160
# workload (both cells: New, Run, Collect; TestScaleCensus, which logs the
# same three numbers). EXPERIMENTS.md
# "Allocation census", "Allocation-free client ops", "Zero-allocation
# replication rounds" and "Messages read in their box" read these tables.
census:
	mkdir -p .bench_build
	$(GO) run ./cmd/ddpbench -exp fig6 -quick -parallel 1 -memprofile .bench_build/census.mprof > /dev/null
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=40 .bench_build/census.mprof
	FLAT_CENSUS=1 $(GO) test ./internal/cluster/ -run '^TestFlatCensus$$' -count=1 -v -memprofilerate 1 -memprofile .bench_build/flat_census.mprof -o .bench_build/cluster.test | grep 'rep allocated'
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=40 .bench_build/cluster.test .bench_build/flat_census.mprof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount=40 .bench_build/cluster.test .bench_build/flat_census.mprof
	SCALE_CENSUS=1 $(GO) test ./internal/cluster/ -run '^TestScaleCensus$$' -count=1 -v -memprofilerate 1 -memprofile .bench_build/scale_census.mprof -o .bench_build/cluster.test | grep 'rep allocated'
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=40 .bench_build/cluster.test .bench_build/scale_census.mprof

# Live heap of four repo benchmark cells, the memory twin of census:
# scale160's <Ev,Ev> and <Lin,Sync> cells at the benchmark's windows (the
# larger sets that workload's live_heap_mb), flat_matrix's 5x20 <Causal,
# Sync> cell (the largest live heap of that workload, set by its Causal
# reorder buffer) and sparse_openloop's 10-server bursty <Ev,Strict> cell
# (that workload's largest). Each cell is built and run, a collection is
# forced with the cluster still live (the state live_heap_mb samples), and
# the exact in-use heap profile (runtime.MemProfileRate = 1) prints its
# top-20 sites by bytes. EXPERIMENTS.md "Per-node state", "Buffered updates
# hold their box", "Fewer bytes per pending event" and "Key slots hold only
# the two versions" read these tables.
footprint:
	mkdir -p .bench_build
	FOOTPRINT_PROFILE=$(CURDIR)/.bench_build/footprint.pprof $(GO) test ./internal/cluster/ -run '^TestFootprintProfile$$' -count=1 -v
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=20 .bench_build/footprint.pprof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=20 .bench_build/footprint_lin_sync.pprof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=20 .bench_build/footprint_causal_sync.pprof
	$(GO) tool pprof -sample_index=inuse_space -top -nodecount=20 .bench_build/footprint_sparse_ev_strict.pprof

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
