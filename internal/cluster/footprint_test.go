package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// runRetained builds cfg's cluster, runs its warm-up and measured window on
// the sequential engine, forces a collection and calls held with the cluster
// still live — the state the repo benchmark's live_heap_mb samples. It
// returns the heap that survives, net of what was live before New. A negative
// difference means the baseline shrank under the cluster (something live
// before New was freed), so the figure is meaningless and the test fails.
func runRetained(t testing.TB, cfg Config, held func(*Cluster)) int64 {
	t.Helper()
	return retained(t, cfg, true, held)
}

// retained is runRetained, running the cell only if run is set: unrun, it
// measures what New alone leaves live.
func retained(t testing.TB, cfg Config, run bool, held func(*Cluster)) int64 {
	t.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run {
		c.Start()
		c.Eng.Run(cfg.WarmupNs)
		c.BeginMeasurement()
		c.Eng.Run(cfg.WarmupNs + cfg.MeasureNs)
		c.StopMeasurement()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if held != nil {
		held(c)
	}
	runtime.KeepAlive(c)
	retained := int64(ms.HeapAlloc) - int64(base)
	if retained < 0 {
		t.Fatalf("heap fell from %d B before New to %d B with the cluster live: the baseline was not settled", base, ms.HeapAlloc)
	}
	return retained
}

// TestRetainedHeapLinearInNodes pins what a cluster holds per node once it has
// been built and run: from 40 to 160 nodes the scaling cell's retained heap
// grows linearly, by at most 56 KB per added node (about 40 KB measured, most
// of it the 20 clients' and the replica's recycled records). A pair of inline
// latency histograms per node adds 32 KB per node on its own, and event
// storage reserved per client rather than grown by use 7.5 KB more: with
// both, the slope was 88 KB.
func TestRetainedHeapLinearInNodes(t *testing.T) {
	const budget = 56 << 10
	small := runRetained(t, scaleCell(40, 20_000, 30_000), nil)
	large := runRetained(t, scaleCell(160, 20_000, 30_000), nil)
	perNode := (float64(large) - float64(small)) / 120
	if perNode > budget {
		t.Fatalf("retained heap %d B at 40 nodes, %d B at 160: %.0f B per added node, want <= %d", small, large, perNode, budget)
	}
	t.Logf("retained heap %d B at 40 nodes, %d B at 160: %.0f B per added node", small, large, perNode)
}

// TestCausalBufferBytesPerEntry pins what the Causal reorder buffer holds per
// buffered update, where it sets the flagship workload's live heap: the repo
// benchmark's flat 5x20 <Causal, Sync> cell, whose persist-gated applies
// leave tens of thousands of updates buffered at the end of its window,
// retains at most 48 B per buffered entry more than its <Causal, EventualP>
// twin, whose buffers stay near empty (about 36 B measured). A buffered
// update holds its UPD's box, shared by every receiver that buffers it, and
// waits in one ring slot per writer count; a private copy of the update and
// its history per receiver, filed in a (node, count) map, cost 88 B.
func TestCausalBufferBytesPerEntry(t *testing.T) {
	const budget = 48
	entries := 0
	backlog := runRetained(t, flatCell(core.Model{C: core.Causal, P: core.Synchronous}), func(c *Cluster) {
		for _, r := range c.Replicas {
			entries += r.BufferLen()
		}
	})
	twin := runRetained(t, flatCell(core.Model{C: core.Causal, P: core.EventualP}), nil)
	if entries < 10_000 {
		t.Fatalf("only %d updates buffered at the end of the <Causal, Sync> window; the cell no longer builds a backlog", entries)
	}
	perEntry := (float64(backlog) - float64(twin)) / float64(entries)
	if perEntry > budget {
		t.Fatalf("<Causal, Sync> retains %d B, its <Causal, EventualP> twin %d B: %.1f B per each of %d buffered updates, want <= %d",
			backlog, twin, perEntry, entries, budget)
	}
	t.Logf("<Causal, Sync> retains %d B, its <Causal, EventualP> twin %d B: %.1f B per each of %d buffered updates", backlog, twin, perEntry, entries)
}

// TestReplicaHoldsOneRecordPerKey pins what a replica keeps per key: on a
// flat 5-server <Lin, Sync> cell under uniform keys (ZipfTheta 0, so the run
// writes nearly every key), 0.2 ms warm-up + 0.8 ms measured, the retained
// heap grows by at most 28 B per key per replica from 2,000 to 20,000 keys
// (about 25.8 measured). The replica's key table slot (keyState, 24 B) is the
// one version record of a key: its visible and persisted stamps are what a
// read serves and a crash keeps, and a token naming the busy record the key
// holds only while something is in flight on it, taken from the arena the
// replicas share, so the busy keys, not the key space, size those. A volatile
// store and an NVM image beside the slot, each holding the same stamp again,
// read 106 B; the transaction lock and committed version in every binding's
// slot (a 72-B keyState), 74; the write-back state in every slot (a 48-B
// keyState) plus a 12-B read-stall side table under the INV/ACK/VAL bindings,
// 62. The <Transactional, Sync> twin may hold 16 B more per key: the side
// table of those two fields, which only Transactional consistency builds
// (about 42.2 measured; 78.6 with the 48-B slot). The <Eventual, Eventual>
// row holds at most 28 B (about 25.8 measured; 50 with the 48-B slot, 58
// with the read-stall state in every slot). It runs 2 clients per server: at
// 20, its lazy write-backs back up at the NVM banks, and less so the more keys
// they coalesce over, so the backlog, not the key table, sets its slope (115
// B with the 48-B slot).
func TestReplicaHoldsOneRecordPerKey(t *testing.T) {
	for _, tc := range []struct {
		m       core.Model
		clients int // per server; 0 = the default 20
		budget  float64
	}{
		{core.Model{C: core.Linearizable, P: core.Synchronous}, 0, 28},
		{core.Model{C: core.Transactional, P: core.Synchronous}, 0, 28 + 16},
		{core.Model{C: core.Eventual, P: core.EventualP}, 2, 28},
	} {
		cell := func(keys int) Config {
			p := params.Default()
			p.Servers, p.Keys, p.ZipfTheta = 5, keys, 0
			if tc.clients > 0 {
				p.ClientsPerServer = tc.clients
			}
			return Config{Model: tc.m, Workload: ycsb.WorkloadA,
				Params: p, Seed: 1, WarmupNs: 200_000, MeasureNs: 800_000}
		}
		small := runRetained(t, cell(2_000), nil)
		large := runRetained(t, cell(20_000), nil)
		perKey := (float64(large) - float64(small)) / (18_000 * 5)
		if perKey > tc.budget {
			t.Errorf("%v: retained heap %d B at 2,000 keys, %d B at 20,000: %.1f B per added key per replica, want <= %.0f", tc.m, small, large, perKey, tc.budget)
		}
		t.Logf("%v: retained heap %d B at 2,000 keys, %d B at 20,000: %.1f B per added key per replica", tc.m, small, large, perKey)
	}
}

// flatCell is the repo benchmark's flat_matrix cell for binding m: 5 servers
// x 20 closed-loop clients on YCSB-A, 0.2 ms warm-up + 0.15 ms measured,
// seed 1.
func flatCell(m core.Model) Config {
	return Config{Model: m, Workload: ycsb.WorkloadA, Params: params.Default(), Seed: 1, WarmupNs: 200_000, MeasureNs: 150_000}
}

// TestConstructionObjectsPerClient pins what a closed-loop client costs to
// build: on the 40- and on the 160-node scaling cell, New + Start with 20
// clients per server allocate at most 0.1 objects per client more than with
// one. The clients, their generators and random streams share one slab, the
// request records one list, and Start schedules each client as a handler;
// a client built from its own record, generator, two forked RNGs and a start
// closure costs 5.
func TestConstructionObjectsPerClient(t *testing.T) {
	objects := func(nodes, perServer int) int64 {
		cfg := scaleCell(nodes, 100_000, 100_000)
		cfg.Params.ClientsPerServer = perServer
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.Start()
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	for _, nodes := range []int{40, 160} {
		one, twenty := objects(nodes, 1), objects(nodes, 20)
		added := nodes * 19
		if per := float64(twenty-one) / float64(added); per > 0.1 {
			t.Errorf("%d nodes: %d objects with 1 client per server, %d with 20: %.2f per added client, want <= 0.1", nodes, one, twenty, per)
		}
	}
}

// TestClientBytesPerClient pins what a closed-loop client holds: on the
// scaling cell's shape (160 nodes, Shards 32) under <Lin, Sync>, the heap New
// leaves live grows by at most 192 B per added client from 20 to 40 clients
// per server (about 166 measured: the 88-B client and the 80-B request
// record reserved for its op in flight). The heap a run adds per client is
// the run's records in flight, not the client's, so the cell is not run.
// With the scope and transaction bookkeeping inline in every client, a copy
// of the workload in its generator, and a client slab and a request list per
// node, it read 445 B. It also checks that exactly the Transactional and
// Scope bindings build a client session.
func TestClientBytesPerClient(t *testing.T) {
	const budget = 192
	cell := func(perServer int) Config {
		cfg := scaleCell(160, 200_000, 800_000)
		cfg.Model = core.Model{C: core.Linearizable, P: core.Synchronous}
		cfg.Params.ClientsPerServer = perServer
		return cfg
	}
	// The first build of a test process leaves about 38 kB less live than
	// later ones; a throwaway build settles that before the two measured.
	retained(t, cell(20), false, nil)
	small := retained(t, cell(20), false, nil)
	large := retained(t, cell(40), false, nil)
	perClient := (float64(large) - float64(small)) / (160 * 20)
	if perClient > budget {
		t.Errorf("New retains %d B at 20 clients per server, %d B at 40: %.1f B per added client, want <= %d", small, large, perClient, budget)
	}
	t.Logf("New retains %d B at 20 clients per server, %d B at 40: %.1f B per added client", small, large, perClient)

	for _, m := range core.AllModels() {
		c, err := New(smallConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		want := m.C == core.Transactional || m.P == core.Scope
		for i := range c.Clients {
			if got := c.Clients[i].ses != nil; got != want {
				t.Fatalf("%v: client %d has a session = %v, want %v", m, i, got, want)
			}
		}
	}
}

// TestResultBytes pins what a collected Result holds once its cluster is
// gone: on the repo benchmark's flat 5x20 <Linearizable, Synchronous> cell,
// dropping the Result frees at most 16 KB (about 11 KB measured: the 1.1-KB
// Result, the write histogram's 16 rows and the read histogram's 24, 4 and
// 6 KB, as its slowest read takes about 165 us, and no rows for the unused
// scope histogram). The benchmark keeps every earlier cell's Result, so this
// is paid once per cell of a workload. With all 64 rows stored in each of its
// three histograms, a Result held about 57 KB.
func TestResultBytes(t *testing.T) {
	const budget = 16 << 10
	cfg := flatCell(core.Model{C: core.Linearizable, P: core.Synchronous})
	var res *Result
	runRetained(t, cfg, func(c *Cluster) { res = c.Collect(cfg.MeasureNs, 0) })
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	held := ms.HeapAlloc
	if res.Summary.Ops == 0 {
		t.Fatal("the cell completed no op")
	}
	res = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	size := int64(held) - int64(ms.HeapAlloc)
	if size > budget {
		t.Errorf("a collected Result retains %d B with its cluster dropped, want <= %d", size, budget)
	}
	t.Logf("a collected Result retains %d B with its cluster dropped", size)
}

// TestFootprintProfile writes the exact in-use heap profiles of four repo
// benchmark cells, each taken after a forced collection with the cluster
// built and run — the live_heap_mb sample, by allocation site: scale160's
// <Ev,Ev> and <Lin,Sync> cells at the benchmark's windows (0.2 ms warm-up +
// 0.2 ms measured; the larger of the two sets that workload's live_heap_mb),
// flat_matrix's 5x20 <Causal, Sync> cell, whose reorder buffer makes it the
// largest live heap of that workload, and sparse_openloop's 10-server
// <Ev,Strict> cell under bursty open-loop writes at 4 Mops/s (1 ms warm-up +
// 5 ms measured), that workload's largest. It runs only when
// FOOTPRINT_PROFILE names the first output file; the others go next to it,
// with "_lin_sync", "_causal_sync" and "_sparse_ev_strict" before the
// extension. `make footprint` sets it and prints the top 20 sites of each by
// inuse_space.
func TestFootprintProfile(t *testing.T) {
	out := os.Getenv("FOOTPRINT_PROFILE")
	if out == "" {
		t.Skip("set FOOTPRINT_PROFILE=<file> to write the profiles (make footprint)")
	}
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	ext := filepath.Ext(out)
	sibling := func(suffix string) string { return strings.TrimSuffix(out, ext) + suffix + ext }
	linSync := scaleCell(160, 200_000, 200_000)
	linSync.Model = core.Model{C: core.Linearizable, P: core.Synchronous}
	sparse := params.Default()
	sparse.Servers = 10
	evStrict := Config{Model: core.Model{C: core.Eventual, P: core.Strict}, Workload: ycsb.WorkloadW, Params: sparse,
		Arrivals: &ycsb.ArrivalSpec{Shape: ycsb.ShapeBursty, RatePerSec: 4e6}, Seed: 1, WarmupNs: 1_000_000, MeasureNs: 5_000_000}
	for _, cell := range []struct {
		name, file string
		cfg        Config
	}{
		{"scale160 <Ev,Ev>", out, scaleCell(160, 200_000, 200_000)},
		{"scale160 <Lin,Sync>", sibling("_lin_sync"), linSync},
		{"flat 5x20 <Causal, Sync>", sibling("_causal_sync"), flatCell(core.Model{C: core.Causal, P: core.Synchronous})},
		{"sparse 10-server <Ev,Strict> bursty", sibling("_sparse_ev_strict"), evStrict},
	} {
		live := runRetained(t, cell.cfg, func(*Cluster) {
			f, err := os.Create(cell.file)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if err := pprof.WriteHeapProfile(f); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.2f MB retained; profile in %s", cell.name, float64(live)/(1<<20), cell.file)
	}
}

// TestSharedChooserKeepsStreams checks that sharing one chooser across a
// cluster (ycsb's TestZipfianConstructionCost counts that it is one) moved no
// stream: every closed-loop client generator and open-loop source still
// produces exactly what a private chooser on the same RNG fork would, in the
// fork order New has always used (one fork per node's memory hierarchy, then
// per stream: generator, [arrivals,] owner).
func TestSharedChooserKeepsStreams(t *testing.T) {
	for _, open := range []bool{false, true} {
		cfg := smallConfig(core.Model{C: core.Causal, P: core.Synchronous})
		if open {
			cfg.Arrivals = &ycsb.ArrivalSpec{Shape: ycsb.ShapePoisson, RatePerSec: 1e6}
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var gens []*ycsb.Generator
		for i := range c.Clients {
			gens = append(gens, &c.Clients[i].gen)
		}
		for _, src := range c.Sources {
			gens = append(gens, &src.gen)
		}
		if len(gens) < 2 {
			t.Fatalf("open=%v: only %d load streams built", open, len(gens))
		}
		p := c.Cfg.Params
		rng := sim.NewRNG(cfg.Seed ^ 0xddf0ddf0)
		for i := 0; i < p.Servers; i++ {
			rng.Fork()
		}
		for i, g := range gens {
			private := ycsb.NewGenerator(cfg.Workload, ycsb.NewZipfian(p.Keys, p.ZipfTheta), rng.Fork())
			if open {
				rng.Fork()
			}
			rng.Fork()
			for n := 0; n < 64; n++ {
				if got, want := g.Next(), private.Next(); got != want {
					t.Fatalf("open=%v: stream %d op %d = %+v, want %+v (private chooser, same fork)", open, i, n, got, want)
				}
			}
		}
	}
}

// TestBoxPoolSharedAcrossReplicas pins the sequential wiring's one payload-box
// pool: every replica draws from the same pool, and the spare boxes left at
// the end of a sharded <Ev,Ev> cell stay within twice the peak number of
// messages in flight. A pool per replica fails this: a replica gets back boxes
// its peers took, so each stack fills with its receive surplus and the spares
// add up to several times what was ever in flight. The peak is sampled just
// before each delivery, where it is attained.
func TestBoxPoolSharedAcrossReplicas(t *testing.T) {
	c, err := New(sharded16Cell(100_000, 300_000))
	if err != nil {
		t.Fatal(err)
	}
	var delivered uint64
	peak := 0
	for i, rep := range c.Replicas {
		rt := c.routers[i]
		c.Net.Register(i, func(m simnet.Message) {
			peak = max(peak, int(c.Net.Messages()-delivered))
			delivered++
			if m.Kind >= kindRouteReq {
				rt.onMessage(m)
			} else {
				rep.HandleNetMessage(m)
			}
		})
	}
	if _, err := runBuilt(c); err != nil {
		t.Fatal(err)
	}
	pools := map[*protocol.Arena]bool{}
	spare := 0
	for _, rep := range c.Replicas {
		if a := rep.Arena(); !pools[a] {
			pools[a] = true
			spare += a.SpareBoxes()
		}
	}
	if len(pools) != 1 || spare > 2*peak {
		t.Fatalf("%d box pools hold %d spare boxes, want one pool within 2x the peak of %d messages in flight", len(pools), spare, peak)
	}
	t.Logf("%d spare boxes, peak %d messages in flight", spare, peak)
}

// TestRecyclersOnePerLogicalProcess pins where record recyclers live: a
// sequential cluster's replicas share one protocol.Arena and its worker
// pools and NVM devices park their completions on the one engine's call
// slab; an LP cluster has one arena per replica and one call slab per node's
// engine, so no recycler is shared between goroutines.
func TestRecyclersOnePerLogicalProcess(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := smallConfig(core.Model{C: core.Linearizable, P: core.Synchronous})
		cfg.IntraParallel = workers
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lps := 1
		if workers > 1 {
			lps = len(c.nodes)
		}
		arenas := map[*protocol.Arena]bool{}
		engs := map[*sim.Engine]bool{}
		for i, rep := range c.Replicas {
			arenas[rep.Arena()] = true
			engs[c.nodes[i].eng] = true
		}
		if len(arenas) != lps || len(engs) != lps {
			t.Fatalf("IntraParallel=%d: %d arenas and %d engines among %d replicas, want %d of each",
				workers, len(arenas), len(engs), len(c.Replicas), lps)
		}
		// One completion parked by each node's pool and one by its device:
		// each lands on its node's engine.
		for i := range c.nodes {
			c.Workers[i].AcquireEvent(1, nil, 0)
			c.Devices[i].WriteEvent(0, nil, 0)
		}
		for e := range engs {
			if got, want := e.Parked(), 2*len(c.nodes)/lps; got != want {
				t.Fatalf("IntraParallel=%d: an engine holds %d call slots, want %d", workers, got, want)
			}
		}
		c.Close()
	}
}

// runObjects returns the heap objects that New, Start, Run and Collect of
// cfg allocate: one benchmark cell from construction to its result.
func runObjects(t testing.TB, cfg Config) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestRunObjectsPerAddedNode pins the objects a whole cell allocates per node:
// from 40 to 160 nodes the scaling cell's New + Start + Run + Collect grows
// by at most 18 objects per added node (about 17 measured: the node's own
// records — replica, pool, device, router, memory hierarchy, key table —
// and its worker queue's growth, and its NIC's past the in-flight list's
// first 64 sends). Record recyclers per replica, pool and device, each
// growing its own slabs by use, cost 58; with those shared, a client slab and
// a request list per node and NIC in-flight lists grown by append from empty
// still cost 25.
func TestRunObjectsPerAddedNode(t *testing.T) {
	const budget = 18
	small := runObjects(t, scaleCell(40, 20_000, 30_000))
	large := runObjects(t, scaleCell(160, 20_000, 30_000))
	perNode := (float64(large) - float64(small)) / 120
	if perNode > budget {
		t.Fatalf("%d objects at 40 nodes, %d at 160: %.1f per added node, want <= %d", small, large, perNode, budget)
	}
	t.Logf("%d objects at 40 nodes, %d at 160: %.1f per added node", small, large, perNode)
}

// TestMeasurementSetPerEngine pins where latency histograms live: a
// sequential cluster holds exactly one measurement set, which every node
// points at, and an LP cluster holds one per node, each node pointing at its
// own.
func TestMeasurementSetPerEngine(t *testing.T) {
	for _, workers := range []int{1, 2} {
		cfg := smallConfig(core.Model{C: core.Linearizable, P: core.Synchronous})
		cfg.IntraParallel = workers
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if workers > 1 {
			want = len(c.nodes)
		}
		distinct := map[*measureSet]bool{}
		for i, ns := range c.nodes {
			distinct[ns.measureSet] = true
			if ns.measureSet != c.sets[min(i, len(c.sets)-1)] {
				t.Fatalf("IntraParallel=%d: node %d does not point at its engine's set", workers, i)
			}
		}
		if len(c.sets) != want || len(distinct) != want {
			t.Fatalf("IntraParallel=%d: %d sets, %d distinct among %d nodes; want %d",
				workers, len(c.sets), len(distinct), len(c.nodes), want)
		}
		c.Close()
	}
}

// TestScopeHistogramAllocatedOnFirstUse pins that only Scope bindings pay for
// the scope histogram, on both wirings: outside Scope persistency every
// measurement set's scope histogram, and the Result's, stores nothing (equals
// the zero value), and under Scope they carry samples.
func TestScopeHistogramAllocatedOnFirstUse(t *testing.T) {
	for _, tc := range []struct {
		p     core.Persistency
		scope bool
	}{{core.Synchronous, false}, {core.Scope, true}} {
		for _, workers := range []int{1, 2} {
			cfg := smallConfig(core.Model{C: core.Linearizable, P: tc.p})
			cfg.IntraParallel = workers
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runBuilt(c)
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range c.sets {
				if unused := reflect.DeepEqual(m.scope, stats.Histogram{}); unused == tc.scope {
					t.Fatalf("%s IntraParallel=%d: set %d scope histogram holds %d samples", tc.p, workers, i, m.scope.Count())
				}
			}
			if unused := reflect.DeepEqual(res.ScopeHist, stats.Histogram{}); unused == tc.scope {
				t.Fatalf("%s IntraParallel=%d: result carries %d scope samples", tc.p, workers, res.ScopeHist.Count())
			}
		}
	}
}

// TestScaleCensus builds, runs and collects both cells of the repo
// benchmark's scale160 workload (<Ev,Ev> and <Lin,Sync>, 160 nodes = 32
// shards x rf 5, 20 clients per server, 0.2 ms warm-up + 0.2 ms measured,
// seed 1): one benchmark rep, whose sizing keeps a quarter of the scaling
// study's 0.8 ms window. It runs only when SCALE_CENSUS is set; `make
// census` runs it under -memprofilerate 1 and prints the exact allocation
// sites by objects. It logs the bytes and objects the rep allocated and the
// collections they cost, as TestFlatCensus does.
func TestScaleCensus(t *testing.T) {
	if os.Getenv("SCALE_CENSUS") == "" {
		t.Skip("set SCALE_CENSUS=1 and -memprofile to take the census (make census)")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, m := range []core.Model{{C: core.Eventual, P: core.EventualP}, {C: core.Linearizable, P: core.Synchronous}} {
		cfg := scaleCell(160, 200_000, 200_000)
		cfg.Model = m
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	t.Logf("one scale160 rep allocated %.1f MB in %d objects and ran %d collections",
		float64(after.TotalAlloc-before.TotalAlloc)/1e6, after.Mallocs-before.Mallocs, after.NumGC-before.NumGC)
}

// TestFlatCensus builds, runs and collects every cell of the repo benchmark's
// flat_matrix workload: the 25 bindings on the flat 5x20 closed-loop cell
// (YCSB-A) and Table 1's three write-only 3x8 cells, each with a 0.2 ms
// warm-up and a 0.15 ms measured window, seed 1 — one benchmark rep. quick
// Figure 6 (3 servers x 4 clients over 1 ms) is a different mix, so its census
// does not stand in for this one. It runs only when FLAT_CENSUS is set; `make
// census` runs it under -memprofilerate 1 and prints the exact allocation
// sites by objects and by bytes. It logs the bytes the rep allocated and the
// collections they cost: the collector paces on bytes, not objects.
func TestFlatCensus(t *testing.T) {
	if os.Getenv("FLAT_CENSUS") == "" {
		t.Skip("set FLAT_CENSUS=1 and -memprofile to take the census (make census)")
	}
	var cells []Config
	for _, m := range core.AllModels() {
		cells = append(cells, Config{Model: m, Workload: ycsb.WorkloadA, Params: params.Default()})
	}
	t1 := params.Default()
	t1.Servers, t1.ClientsPerServer = 3, 8
	for _, m := range []core.Model{
		{C: core.Linearizable, P: core.Synchronous},
		{C: core.Linearizable, P: core.EventualP},
		{C: core.Eventual, P: core.EventualP},
	} {
		cells = append(cells, Config{Model: m, Workload: ycsb.Workload{Name: "write-only"}, Params: t1})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cfg := range cells {
		cfg.Seed, cfg.WarmupNs, cfg.MeasureNs = 1, 200_000, 150_000
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	t.Logf("one flat_matrix rep allocated %.1f MB in %d objects and ran %d collections",
		float64(after.TotalAlloc-before.TotalAlloc)/1e6, after.Mallocs-before.Mallocs, after.NumGC-before.NumGC)
}
