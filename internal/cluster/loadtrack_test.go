package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/ycsb"
)

// TestHotSketchGoldenSeed pins the space-saving sketch on a deterministic
// zipfian stream: identical contents on every run, the stream's dominant key
// tracked with an exact count, and the hot test firing for it — the same
// properties every router's placement decisions hang off.
func TestHotSketchGoldenSeed(t *testing.T) {
	feed := func() (*hotSketch, map[uint64]uint32) {
		kc := ycsb.NewZipfian(512, 0.999)
		rng := sim.NewRNG(42)
		s := &hotSketch{e: make([]ssEntry, 0, hotSketchK)}
		truth := make(map[uint64]uint32)
		for i := 0; i < 4096; i++ {
			k := kc.Next(rng)
			truth[k]++
			s.note(k)
		}
		return s, truth
	}
	a, truth := feed()
	b, _ := feed()
	if !reflect.DeepEqual(a.e, b.e) || a.n != b.n {
		t.Fatalf("sketch is not deterministic:\n%+v\nvs\n%+v", a.e, b.e)
	}
	if a.n != 4096 {
		t.Fatalf("sketch saw %d keys, want 4096", a.n)
	}
	// The stream's true hottest key must be tracked, estimated within its
	// error bound, and flagged hot (a theta=0.999 zipfian's rank-0 key takes
	// far over 1/16 of the stream).
	var hottest uint64
	for k, n := range truth {
		if n > truth[hottest] {
			hottest = k
		}
	}
	found := false
	for i := range a.e {
		e := &a.e[i]
		if e.key != hottest {
			continue
		}
		found = true
		if e.cnt < truth[hottest] || e.cnt-e.err > truth[hottest] {
			t.Fatalf("hottest key %d: estimate [%d-%d, %d] excludes true count %d",
				hottest, e.cnt, e.err, e.cnt, truth[hottest])
		}
		if _, hot := a.note(hottest); !hot {
			t.Fatalf("hottest key %d (%d/%d ops) not flagged hot", hottest, truth[hottest], a.n)
		}
	}
	if !found {
		t.Fatalf("hottest key %d (%d ops) not tracked by the sketch", hottest, truth[hottest])
	}
	// Warmup floor: no key is hot before hotWarmup observations.
	fresh := &hotSketch{e: make([]ssEntry, 0, hotSketchK)}
	for i := 0; i < hotWarmup-1; i++ {
		if _, hot := fresh.note(7); hot {
			t.Fatalf("key flagged hot after %d ops, warmup floor is %d", i+1, hotWarmup)
		}
	}
	if _, hot := fresh.note(7); !hot {
		t.Fatal("single-key stream not hot after warmup")
	}
}

// TestP2CSpreadDeterministic pins the power-of-two-choices policy: the
// tie-break (equal counters pick the first candidate; a loaded first
// candidate yields to the second), cold keys keeping the hash coordinator,
// and a hot key's placements walking the whole group identically on every
// run — the property that keeps LP results byte-identical.
func TestP2CSpreadDeterministic(t *testing.T) {
	const base, rf = 6, 3
	hashPick := base + 1
	mk := func() *loadTracker {
		lt := newLoadTracker(base + rf)
		// Saturate one key past the warmup and share floors.
		for i := 0; i < hotWarmup; i++ {
			lt.sk.note(99)
		}
		return lt
	}

	// Cold key: an unknown key keeps the caller's hash coordinator.
	lt := mk()
	if got := lt.spread(12345, base, rf, hashPick); got != hashPick {
		t.Fatalf("cold key spread to %d, want hash pick %d", got, hashPick)
	}

	// Tie-break: with all counters equal the first candidate wins, so the
	// pick is a pure function of (key, count) — pin it against the candidate
	// formula directly.
	lt = mk()
	cnt := lt.sk.e[0].cnt + 1 // count note() will assign inside spread
	wantC1 := base + int(mix64(99^uint64(cnt)*coordSalt)%uint64(rf))
	if got := lt.spread(99, base, rf, hashPick); got != wantC1 {
		t.Fatalf("tied counters picked %d, want first candidate %d", got, wantC1)
	}

	// Loaded first candidate: pile ops on c1 and the second candidate must
	// win (unless both hash to the same replica, where the pick is forced).
	lt = mk()
	cnt = lt.sk.e[0].cnt + 1
	h := mix64(99 ^ uint64(cnt)*coordSalt)
	c1 := base + int(h%uint64(rf))
	c2 := base + int((h>>32)%uint64(rf))
	lt.sent[c1] = 1000
	if got := lt.spread(99, base, rf, hashPick); got != c2 {
		t.Fatalf("loaded c1=%d: picked %d, want c2=%d", c1, got, c2)
	}

	// A hot single-key stream must visit every group replica, identically
	// across two independent trackers.
	seqOf := func() []int {
		lt := mk()
		var seq []int
		for i := 0; i < 64; i++ {
			to := lt.spread(99, base, rf, hashPick)
			lt.count(to)
			seq = append(seq, to)
		}
		return seq
	}
	a, b := seqOf(), seqOf()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("spread sequence not deterministic:\n%v\nvs\n%v", a, b)
	}
	hits := map[int]int{}
	for _, to := range a {
		if to < base || to >= base+rf {
			t.Fatalf("spread left the group: node %d not in [%d,%d)", to, base, base+rf)
		}
		hits[to]++
	}
	if len(hits) != rf {
		t.Fatalf("hot key visited %d of %d group replicas: %v", len(hits), rf, hits)
	}

	// leastLoaded: argmin with ties toward the lowest node ID.
	lt = newLoadTracker(base + rf)
	if got := lt.leastLoaded(base, rf); got != base {
		t.Fatalf("all-zero counters: leastLoaded=%d, want lowest ID %d", got, base)
	}
	lt.sent[base] = 5
	lt.sent[base+1] = 2
	lt.sent[base+2] = 2
	if got := lt.leastLoaded(base, rf); got != base+1 {
		t.Fatalf("leastLoaded=%d, want %d (tie toward lowest ID)", got, base+1)
	}
}

// hotGroupImbalance returns max/mean executed ops across the replicas of
// the busiest shard's group — the concentration coordinator spreading
// attacks (shard totals are fixed by data ownership; only the within-group
// split can move).
func hotGroupImbalance(res *Result, rf int) float64 {
	hot := 0
	for s, n := range res.ShardOps {
		if n > res.ShardOps[hot] {
			hot = s
		}
	}
	var sum, max uint64
	for _, n := range res.NodeOps[hot*rf : hot*rf+rf] {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(rf) / float64(sum)
}

// TestShardedLoadPlacementSpreadsHotGroup is the tentpole's behavioral
// check at smoke scale: on a 16-shard theta=0.999 cell, fixed-hash
// placement concentrates the hot shard's execution on one coordinator while
// "load" placement spreads it across the group — and the default path is
// bit-for-bit unaffected by spelling the default out ("hash" == "").
func TestShardedLoadPlacementSpreadsHotGroup(t *testing.T) {
	base := shardedConfig(core.Model{C: core.Eventual, P: core.EventualP}, 16, 3)
	base.Params.ZipfTheta = 0.999
	base.Params.Keys = 512
	base.MeasureNs = 1_000_000

	hash, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	named := base
	named.Placement = "hash"
	namedRes, err := Run(named)
	if err != nil {
		t.Fatal(err)
	}
	equivalentResults(t, `Placement:"hash" vs default`, hash, namedRes)

	load := base
	load.Placement = "load"
	loadRes, err := Run(load)
	if err != nil {
		t.Fatal(err)
	}
	hi, li := hotGroupImbalance(hash, 3), hotGroupImbalance(loadRes, 3)
	if hi < 1.8 {
		t.Fatalf("hash placement hot-group imbalance %.2f — skew cell lost its concentration baseline", hi)
	}
	if li > 1.6 {
		t.Fatalf("load placement hot-group imbalance %.2f, want <= 1.6 (hash baseline %.2f)", li, hi)
	}
	// Shard totals are ownership-determined: load placement must not move
	// ops across shards, only within groups.
	if loadRes.Summary.Ops == 0 || loadRes.Routed == 0 {
		t.Fatal("load placement run did nothing")
	}
}

// TestShardedReplicaReads checks the Hermes-style read policy: on a
// read-heavy skewed cell a weak-visibility model spreads the hot group
// further than hash placement, and Validate rejects the knob for
// strict-visibility models and unsharded clusters.
func TestShardedReplicaReads(t *testing.T) {
	base := shardedConfig(core.Model{C: core.Eventual, P: core.EventualP}, 16, 3)
	base.Workload = ycsb.WorkloadB // 95% reads
	base.Params.ZipfTheta = 0.999
	base.Params.Keys = 512
	base.MeasureNs = 1_000_000

	hash, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	rr := base
	rr.ReplicaReads = true
	rrRes, err := Run(rr)
	if err != nil {
		t.Fatal(err)
	}
	hi, ri := hotGroupImbalance(hash, 3), hotGroupImbalance(rrRes, 3)
	if ri >= hi {
		t.Fatalf("replica reads did not spread the hot group: %.2f vs hash %.2f", ri, hi)
	}
	if ri > 1.6 {
		t.Fatalf("replica-read hot-group imbalance %.2f, want <= 1.6", ri)
	}

	// Per-field validation: strict visibility and unsharded clusters reject
	// the knob with a field-specific error.
	bad := base
	bad.Model = core.Model{C: core.Linearizable, P: core.EventualP}
	bad.ReplicaReads = true
	if err := bad.Validate(); err == nil {
		t.Fatal("ReplicaReads accepted for Linearizable visibility")
	}
	flat := smallConfig(core.Model{C: core.Eventual, P: core.EventualP})
	flat.ReplicaReads = true
	if err := flat.Validate(); err == nil {
		t.Fatal("ReplicaReads accepted without a sharded topology")
	}
}

// TestShardedPlacementDifferential extends the sharded determinism proof to
// the skew-adaptive policies: load placement, replica reads, and batched
// forwarding must stay byte-identical sequential vs LP, on closed- and
// open-loop cells, across the corner models each knob supports.
func TestShardedPlacementDifferential(t *testing.T) {
	seeds := uint64(8)
	if testing.Short() {
		seeds = 3
	}
	models := cornerModels()
	for seed := uint64(0); seed < seeds; seed++ {
		m := models[seed%4]
		cfg := shardedConfig(m, 4+12*int(seed%2), 3)
		cfg.Seed = 9100 + seed
		cfg.Params.ZipfTheta = 0.999
		cfg.Placement = "load"
		if !core.RulesOf(m).InvAckVal {
			cfg.ReplicaReads = seed%2 == 0
		}
		if seed%3 == 0 {
			cfg.FwdBatch = 8
		}
		if seed%4 == 3 {
			cfg.Arrivals = &ycsb.ArrivalSpec{RatePerSec: 2e6}
		}
		label := fmt.Sprintf("seed=%d %s shards=%d rr=%v fb=%d open=%v",
			cfg.Seed, m, cfg.Shards, cfg.ReplicaReads, cfg.FwdBatch, cfg.Arrivals != nil)
		runPair(t, label, cfg, 2+int(seed%3))
	}
}

// TestShardedOpenLoopFwdBatchDifferential pins the satellite's named cell:
// a sharded open-loop run with batching on is byte-identical sequential vs
// LP, and actually coalesces — fewer network messages than unbatched for
// the same op stream.
func TestShardedOpenLoopFwdBatchDifferential(t *testing.T) {
	cfg := shardedConfig(core.Model{C: core.Eventual, P: core.EventualP}, 4, 3)
	cfg.Arrivals = &ycsb.ArrivalSpec{RatePerSec: 4e6}
	cfg.FwdBatch = 8
	runPair(t, "open-loop shards=4 fwdbatch=8", cfg, 3)

	batched, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain := cfg
	plain.FwdBatch = 0
	plainRes, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Routed == 0 || plainRes.Routed == 0 {
		t.Fatal("cells forwarded nothing")
	}
	if batched.NetMessages >= plainRes.NetMessages {
		t.Fatalf("fwdbatch=8 sent %d messages, unbatched %d — no coalescing",
			batched.NetMessages, plainRes.NetMessages)
	}
}

// TestShardedKnobValidation extends the per-field validation table to the
// skew-adaptive knobs.
func TestShardedKnobValidation(t *testing.T) {
	base := func() Config {
		cfg := smallConfig(core.Model{C: core.Eventual, P: core.EventualP})
		cfg.Params.Servers = 12
		cfg.Shards = 4
		return cfg
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"unknown placement", func(c *Config) { c.Placement = "rendezvous" }},
		{"load placement unsharded", func(c *Config) { c.Shards = 0; c.Placement = "load" }},
		{"replica reads unsharded", func(c *Config) { c.Shards = 0; c.ReplicaReads = true }},
		{"replica reads strict visibility", func(c *Config) {
			c.Model = core.Model{C: core.Linearizable, P: core.EventualP}
			c.ReplicaReads = true
		}},
		{"replica reads transactional", func(c *Config) {
			c.Shards = 1
			c.Model = core.Model{C: core.Transactional, P: core.Synchronous}
			c.ReplicaReads = true
		}},
		{"negative fwdbatch", func(c *Config) { c.FwdBatch = -1 }},
		{"fwdbatch unsharded", func(c *Config) { c.Shards = 0; c.FwdBatch = 8 }},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the config", tc.name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted the config", tc.name)
		}
	}
	// Happy paths: every knob in its supported envelope.
	good := base()
	good.Placement = "load"
	good.ReplicaReads = true
	good.FwdBatch = 8
	if err := good.Validate(); err != nil {
		t.Fatalf("valid skew-adaptive config rejected: %v", err)
	}
}

// TestLoadTrackZeroAlloc pins the satellite guard: the placement decision —
// sketch note, p2c pick, least-loaded scan, counters — allocates nothing on
// the routed hot path.
func TestLoadTrackZeroAlloc(t *testing.T) {
	cfg := shardedConfig(core.Model{C: core.Eventual, P: core.EventualP}, 16, 3)
	cfg.Placement = "load"
	cfg.ReplicaReads = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rt := c.routers[0]
	var sink int
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			// Alternate a hot key (exercises the sketch hit + p2c path) with
			// a rotating cold tail (sketch misses + replacement).
			key := uint64(3)
			if i%2 == 1 {
				sink++
				key = uint64(1000 + sink%512)
			}
			shard, node := rt.place(key, i%4 == 0)
			sink += shard + node
		}
	})
	if allocs > 0 {
		t.Fatalf("placement allocated %.2f per 64-op batch, want 0 (sink %d)", allocs, sink)
	}
}

// TestFwdBatchZeroAlloc pins the other guard: the batched forwarding path —
// request checkout, batch open/append/flush, doorbell timer, send, delivery,
// and recycling — allocates nothing in steady state. The receiver is a stub
// handler so the guard measures the batching machinery, not the replica's
// execution path (covered by its own guards).
func TestFwdBatchZeroAlloc(t *testing.T) {
	eng := sim.New()
	eng.Reserve(4096)
	net := simnet.New(eng, simnet.Config{
		Nodes: 2, OneWayLat: 500, Bandwidth: 100e9, Seed: 1,
		MaxKind: kindRouteBatch,
	})
	cl := &Cluster{Cfg: Config{Params: params.Default()}.WithDefaults()}
	rt := &router{cl: cl, ns: &nodeState{eng: eng, measureSet: new(measureSet)}, net: net, node: 0,
		reqs: new(sim.FreeList[request, *request])}
	rt.fb = newFwdBatcher(rt, 8)
	rt.reqs.Reserve(64)
	rt.fb.free.Reserve(8)
	net.Register(0, func(m simnet.Message) {})
	net.Register(1, func(m simnet.Message) {
		b := m.Payload.(*fwdBatch)
		for i, q := range b.ops {
			b.ops[i] = nil
			rt.reqs.Put(q)
		}
		b.ops = b.ops[:0]
		b.bytes = 0
		rt.fb.free.Put(b)
	})
	allocs := testing.AllocsPerRun(200, func() {
		for k := uint64(0); k < 24; k++ { // 3 full batches of 8
			q := rt.reqs.Get(1)
			q.op = ycsb.Op{Kind: ycsb.OpWrite, Key: k}
			rt.forward(q, 1)
		}
		// Drain the doorbells (no-ops: every batch flushed on size) and the
		// in-flight deliveries so pools rebalance before the next round.
		eng.Run(eng.Now() + 100_000)
	})
	if allocs > 0 {
		t.Fatalf("batched forwarding allocated %.2f per 24-op round, want 0", allocs)
	}
}
