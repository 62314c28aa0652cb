package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ycsb"
)

// cornerModels are the four corners of the DDP matrix (strongest/weakest
// visibility crossed with strongest/weakest persistency) — the models the
// scaling experiments sweep.
func cornerModels() []core.Model {
	return []core.Model{
		{C: core.Linearizable, P: core.Strict},
		{C: core.Linearizable, P: core.EventualP},
		{C: core.Eventual, P: core.Strict},
		{C: core.Eventual, P: core.EventualP},
	}
}

// shardedConfig builds a fast multi-shard cell: shards groups of rf nodes
// with small windows and few clients so the differential grids stay quick.
func shardedConfig(m core.Model, shards, rf int) Config {
	cfg := smallConfig(m)
	cfg.Shards = shards
	cfg.Params.Servers = shards * rf
	cfg.Params.ClientsPerServer = 2
	cfg.Params.Keys = 128
	cfg.WarmupNs = 100_000
	cfg.MeasureNs = 300_000
	return cfg
}

// TestRingDeterministicAndBalanced pins the placement layer: identical rings
// on every construction (placement is a pure hash, no RNG), every shard
// owning a fair share of a hashed keyspace, and lookups agreeing with a
// linear scan of the ring.
func TestRingDeterministicAndBalanced(t *testing.T) {
	for _, shards := range []int{1, 4, 16, 32} {
		a, b := newRing(shards, 3), newRing(shards, 3)
		if !reflect.DeepEqual(a.pos, b.pos) || !reflect.DeepEqual(a.own, b.own) {
			t.Fatalf("shards=%d: ring construction is not deterministic", shards)
		}
		if len(a.pos) != shards*vnodesPerShard {
			t.Fatalf("shards=%d: %d vnodes, want %d", shards, len(a.pos), shards*vnodesPerShard)
		}
		counts := make([]int, shards)
		const keys = 100_000
		for k := uint64(0); k < keys; k++ {
			s := a.owner(k)
			if s < 0 || s >= shards {
				t.Fatalf("shards=%d: key %d owned by out-of-range shard %d", shards, k, s)
			}
			counts[s]++
		}
		mean := float64(keys) / float64(shards)
		for s, n := range counts {
			if f := float64(n) / mean; shards > 1 && (f < 0.55 || f > 1.6) {
				t.Errorf("shards=%d: shard %d owns %.2fx the mean keys (%d)", shards, s, f, n)
			}
		}
		// Coordinator spread: every replica of a shard must get some keys.
		nodeHits := make([]int, shards*3)
		for k := uint64(0); k < 10_000; k++ {
			node := a.coordinator(k, a.owner(k))
			nodeHits[node]++
		}
		for n, hits := range nodeHits {
			if hits == 0 {
				t.Errorf("shards=%d: node %d never chosen as coordinator", shards, n)
			}
		}
	}
}

// TestRingLookupMatchesLinearScan cross-checks the hand-written binary
// search against the obvious reference implementation.
func TestRingLookupMatchesLinearScan(t *testing.T) {
	r := newRing(16, 4)
	ref := func(key uint64) int {
		h := mix64(key)
		best, found := 0, false
		for i, p := range r.pos {
			if p >= h {
				best, found = i, true
				break
			}
			_ = i
		}
		if !found {
			best = 0
		}
		return int(r.own[best])
	}
	for k := uint64(0); k < 20_000; k++ {
		if got, want := r.owner(k), ref(k); got != want {
			t.Fatalf("key %d: owner %d, reference scan %d", k, got, want)
		}
	}
}

// TestRingOwnerTableMatchesSearch checks the owner table New fills: one entry
// per key in [0, Keys), each naming the shard the vnode search names and a
// slot unique within that shard, and keys past the table still answered by
// the search.
func TestRingOwnerTableMatchesSearch(t *testing.T) {
	for _, shards := range []int{1, 4, 32} {
		c, err := New(shardedConfig(core.Model{C: core.Eventual, P: core.EventualP}, shards, 3))
		if err != nil {
			t.Fatal(err)
		}
		keys := c.Cfg.Params.Keys
		if len(c.ring.owners) != keys {
			t.Fatalf("shards=%d: owner table has %d entries, want %d", shards, len(c.ring.owners), keys)
		}
		search := newRing(shards, 3)
		slots := map[[2]int32]bool{}
		for k := uint64(0); k < uint64(keys)+1000; k++ {
			if got, want := c.ring.owner(k), search.owner(k); got != want {
				t.Fatalf("shards=%d key %d: owner %d, search %d", shards, k, got, want)
			}
			if k < uint64(keys) {
				o := c.ring.owners[k]
				if slots[[2]int32{o.Shard, o.Slot}] {
					t.Fatalf("shards=%d key %d: slot %d of shard %d taken twice", shards, k, o.Slot, o.Shard)
				}
				slots[[2]int32{o.Shard, o.Slot}] = true
			}
		}
		c.Close()
	}
}

// TestFlatRoutingReport pins the one wiring's reporting contract: Shards 0
// and 1 build the same cluster (ring, routers and group-relative membership
// over one all-servers shard), so every model — the
// transactional and scoped session paths included — produces identical
// results. Only the report differs. A flat cell (Shards = 0) reports no
// routing at all: Routed 0 and nil ShardOps/NodeOps, which the benchmark's
// routing digest pins. Shards = 1 reports one shard that executed every
// router-dispatched op, none forwarded; transactional sessions pin to their
// home replica and never reach the router.
func TestFlatRoutingReport(t *testing.T) {
	models := []core.Model{
		{C: core.Linearizable, P: core.Strict},
		{C: core.Eventual, P: core.EventualP},
		{C: core.Causal, P: core.Synchronous},
		{C: core.Transactional, P: core.Scope},
		{C: core.ReadEnforcedC, P: core.ReadEnforcedP},
	}
	for _, m := range models {
		cfg := smallConfig(m)
		cfg.TrackHistory = true
		flat, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s shards=0: %v", m, err)
		}
		if flat.Routed != 0 || flat.ShardOps != nil || flat.NodeOps != nil {
			t.Fatalf("%s: flat cell reported routing: routed=%d shardOps=%v nodeOps=%v",
				m, flat.Routed, flat.ShardOps, flat.NodeOps)
		}
		cfg.Shards = 1
		one, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s shards=1: %v", m, err)
		}
		equivalentResults(t, fmt.Sprintf("%s shards=1", m), flat, one)
		if one.Routed != 0 {
			t.Fatalf("%s: single-shard cluster forwarded %d ops", m, one.Routed)
		}
		if len(one.ShardOps) != 1 || len(one.NodeOps) != cfg.Params.Servers {
			t.Fatalf("%s: ShardOps = %v, NodeOps = %v, want one shard over %d nodes",
				m, one.ShardOps, one.NodeOps, cfg.Params.Servers)
		}
		var nodeSum uint64
		for _, n := range one.NodeOps {
			nodeSum += n
		}
		if nodeSum != one.ShardOps[0] {
			t.Fatalf("%s: NodeOps %v sum to %d, ShardOps[0] = %d", m, one.NodeOps, nodeSum, one.ShardOps[0])
		}
		if m.C == core.Transactional {
			if one.ShardOps[0] != 0 {
				t.Fatalf("%s: transactional sessions reached the router: ShardOps = %v", m, one.ShardOps)
			}
			continue
		}
		// Ops issued and ops completed in the window differ by at most what
		// was in flight at its two edges.
		inflight := int64(cfg.Params.Servers * cfg.Params.ClientsPerServer * max(cfg.Params.ClientWindow, 1))
		if d := int64(one.ShardOps[0]) - int64(one.Summary.Ops); one.ShardOps[0] == 0 || d > inflight || -d > inflight {
			t.Fatalf("%s: the shard executed %d ops, the window completed %d (in flight <= %d)",
				m, one.ShardOps[0], one.Summary.Ops, inflight)
		}
	}
}

// TestShardedRunForwards sanity-checks a multi-shard run: ops execute on
// every shard, and roughly (S-1)/S of them — a uniformly hashed keyspace —
// were forwarded off their issuing node's shard.
func TestShardedRunForwards(t *testing.T) {
	cfg := shardedConfig(core.Model{C: core.Linearizable, P: core.Synchronous}, 4, 3)
	cfg.Params.ZipfTheta = 0 // uniform: forwarded fraction concentrates at 3/4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Ops == 0 {
		t.Fatal("no operations completed")
	}
	var total uint64
	for s, n := range res.ShardOps {
		if n == 0 {
			t.Fatalf("shard %d executed no ops: %v", s, res.ShardOps)
		}
		total += n
	}
	frac := float64(res.Routed) / float64(total)
	if frac < 0.55 || frac > 0.95 {
		t.Fatalf("forwarded fraction %.2f, want ~0.75 for 4 uniform shards", frac)
	}
}

// TestShardedSequentialLPDifferential is the sharded determinism proof the
// issue demands: over >= 10 seeds cycling the four corner models, shard
// counts {4, 16}, and varying LP worker counts, the LP engine must
// reproduce the sequential engine byte-for-byte. CI runs it under -race.
func TestShardedSequentialLPDifferential(t *testing.T) {
	models := cornerModels()
	workloads := []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadW}
	seeds := uint64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(0); seed < seeds; seed++ {
		m := models[seed%4]
		shards, rf := 4, 3
		if seed%2 == 1 {
			shards = 16
			rf = 3 // 48 nodes
		}
		cfg := shardedConfig(m, shards, rf)
		cfg.Workload = workloads[seed%3]
		cfg.Seed = 7000 + seed
		cfg.TrackHistory = seed%3 == 0
		workers := 2 + int(seed%3)
		label := fmt.Sprintf("seed=%d %s %s shards=%d w=%d",
			cfg.Seed, m, cfg.Workload.Name, shards, workers)
		runPair(t, label, cfg, workers)
	}
}

// TestShardedDeterministicReplay asserts two identical sharded runs agree
// exactly — routing introduces no hidden nondeterminism.
func TestShardedDeterministicReplay(t *testing.T) {
	cfg := shardedConfig(core.Model{C: core.Eventual, P: core.Strict}, 4, 3)
	cfg.TrackHistory = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	equivalentResults(t, "replay", a, b)
	if !reflect.DeepEqual(a.ShardOps, b.ShardOps) || a.Routed != b.Routed {
		t.Fatalf("routing accounting diverged: %v/%d vs %v/%d",
			a.ShardOps, a.Routed, b.ShardOps, b.Routed)
	}
}

// TestShardedOpenLoop runs the open-loop load engine over a sharded
// cluster, sequential vs LP.
func TestShardedOpenLoop(t *testing.T) {
	cfg := shardedConfig(core.Model{C: core.Eventual, P: core.EventualP}, 4, 3)
	cfg.Arrivals = &ycsb.ArrivalSpec{RatePerSec: 2e6}
	runPair(t, "open-loop shards=4", cfg, 3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Routed == 0 {
		t.Fatal("open-loop sharded run forwarded nothing")
	}
}

// TestRoutedClientZeroAlloc pins the routed hot path's own machinery —
// placement (ring lookup, coordinator choice), request checkout and return —
// at zero allocations per op.
func TestRoutedClientZeroAlloc(t *testing.T) {
	cfg := shardedConfig(core.Model{C: core.Eventual, P: core.EventualP}, 16, 3)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rt := c.routers[0]
	rt.reqs.Reserve(256)
	var sink int
	allocs := testing.AllocsPerRun(200, func() {
		for k := uint64(0); k < 64; k++ {
			shard, node := rt.place(k, true)
			sink += shard + node
			q := rt.reqs.Get(1)
			q.op = ycsb.Op{Kind: ycsb.OpRead, Key: k}
			q.origin = int32(rt.node)
			rt.reqs.Put(q)
		}
	})
	if allocs > 0 {
		t.Fatalf("routing machinery allocated %.2f per 64-op batch, want 0 (sink %d)", allocs, sink)
	}
}

// TestShardedConfigValidation drives every topology knob through the one
// composed Validate path.
func TestShardedConfigValidation(t *testing.T) {
	base := func() Config {
		cfg := smallConfig(core.Model{C: core.Linearizable, P: core.Synchronous})
		cfg.Params.Servers = 12
		return cfg
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative shards", func(c *Config) { c.Shards = -1 }},
		{"shards exceed servers", func(c *Config) { c.Shards = 24 }},
		{"shards do not divide servers", func(c *Config) { c.Shards = 5 }},
		{"transactional sharded", func(c *Config) {
			c.Shards = 4
			c.Model = core.Model{C: core.Transactional, P: core.Synchronous}
		}},
		{"scope sharded", func(c *Config) {
			c.Shards = 4
			c.Model = core.Model{C: core.Linearizable, P: core.Scope}
		}},
		{"hybrid groups sharded", func(c *Config) {
			c.Shards = 4
			c.Params.Groups = 2
		}},
		{"lp on zero-latency fabric", func(c *Config) {
			c.Shards = 4
			c.IntraParallel = 2
			c.Params.NetRoundTrip = 0
			c.Params.NetJitter = 0
		}},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg.Shards)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
	// And the happy path still passes.
	cfg := base()
	cfg.Shards = 4
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid sharded config rejected: %v", err)
	}
}

// TestHotShardSkew asserts the imbalance instrument: a heavily skewed
// zipfian keyspace concentrates load on the shard owning the hottest keys,
// so max/mean ShardOps must exceed the uniform run's.
func TestHotShardSkew(t *testing.T) {
	imbalance := func(theta float64) float64 {
		cfg := shardedConfig(core.Model{C: core.Eventual, P: core.EventualP}, 8, 3)
		cfg.Params.ZipfTheta = theta
		cfg.Params.Keys = 512
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var total, max uint64
		for _, n := range res.ShardOps {
			total += n
			if n > max {
				max = n
			}
		}
		if total == 0 {
			t.Fatal("no ops recorded")
		}
		return float64(max) * float64(len(res.ShardOps)) / float64(total)
	}
	uniform := imbalance(0)
	skewed := imbalance(0.999)
	if skewed <= uniform*1.1 {
		t.Fatalf("theta=0.999 imbalance %.2f not above uniform %.2f", skewed, uniform)
	}
}

// BenchmarkRingRoute measures the per-op routing cost on the client hot
// path: one consistent-hash lookup (binary search over shards*64 points)
// plus the coordinator pick. Must stay allocation-free.
func BenchmarkRingRoute(b *testing.B) {
	for _, shards := range []int{4, 16, 64} {
		r := newRing(shards, 3)
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var sink int
			for i := 0; i < b.N; i++ {
				key := uint64(i) * 0x9e3779b97f4a7c15
				s := r.owner(key)
				sink += s + r.coordinator(key, s)
			}
			_ = sink
		})
	}
}
