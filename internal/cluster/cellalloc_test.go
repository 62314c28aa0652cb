package cluster

import (
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/ycsb"
)

// cellAllocs runs one cell on the sequential engine and returns heap
// allocations across Eng.Run (warm-up and measured window; construction and
// collection stay out) per op completed in the measured window — the bench's
// allocs_per_sim_op for one cell, minus cluster.New.
func cellAllocs(t *testing.T, cfg Config) float64 {
	t.Helper()
	objects, ops := runPhaseObjects(t, cfg)
	return float64(objects) / float64(ops)
}

// runPhaseObjects runs one cell on the sequential engine and returns the heap
// objects allocated across Eng.Run and the ops completed in the measured
// window.
func runPhaseObjects(t *testing.T, cfg Config) (objects, ops uint64) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.Eng.Run(cfg.WarmupNs)
	c.BeginMeasurement()
	c.Eng.Run(cfg.WarmupNs + cfg.MeasureNs)
	c.StopMeasurement()
	runtime.ReadMemStats(&after)
	res := c.Collect(cfg.MeasureNs, 0)
	if res.Summary.Ops == 0 {
		t.Fatal("no operations completed")
	}
	return after.Mallocs - before.Mallocs, res.Summary.Ops
}

// TestPeerlessBroadcastTakesNoBox checks that a broadcast whose strong
// domain has no peer takes no payload box. Such a box has no receiver to put
// it back, so if it were taken every INV and VAL of a single-server cell, or
// of a cell with one server per hybrid group, would allocate a fresh one and
// the objects a run allocates would grow with its window. Under <Lin, Sync>
// with 4 clients per server, a 4 ms window must allocate at most a few more
// objects than a 1 ms one on those two cells, as on the flat 3-server cell
// beside them (taking the box cost 226 and 647 more objects; the flat cell
// grows by 1).
func TestPeerlessBroadcastTakesNoBox(t *testing.T) {
	const slack = 16
	cell := func(servers, groups int, measureNs int64) Config {
		p := params.Default()
		p.Servers, p.Groups, p.ClientsPerServer = servers, groups, 4
		return Config{
			Model: core.Model{C: core.Linearizable, P: core.Synchronous}, Workload: ycsb.WorkloadA, Params: p,
			Seed: 1, WarmupNs: 100_000, MeasureNs: measureNs,
		}
	}
	for _, tc := range []struct {
		name            string
		servers, groups int
	}{{"1 server", 1, 1}, {"3 servers in 3 groups", 3, 3}, {"3 servers flat", 3, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			short, _ := runPhaseObjects(t, cell(tc.servers, tc.groups, 1_000_000))
			long, _ := runPhaseObjects(t, cell(tc.servers, tc.groups, 4_000_000))
			if long > short+slack {
				t.Errorf("%d objects in a 1 ms window, %d in 4 ms: want at most %d more", short, long, slack)
			}
			t.Logf("%d objects in a 1 ms window, %d in 4 ms", short, long)
		})
	}
}

// sharded16Cell is the sharded_skew-shaped cell the exact cell-level guards
// run: 48 nodes in 16 shards, zipf 0.999, <Eventual, Eventual>, seed 1.
func sharded16Cell(warmupNs, measureNs int64) Config {
	p := params.Default()
	p.Servers = 48
	p.ClientsPerServer = 2
	p.ZipfTheta = 0.999
	return Config{
		Model: core.Model{C: core.Eventual, P: core.EventualP}, Workload: ycsb.WorkloadA, Params: p,
		Shards: 16, Seed: 1, WarmupNs: warmupNs, MeasureNs: measureNs,
	}
}

// openLoopCell is the sparse_openloop-shaped cell the exact cell-level guards
// run: 10 servers, Poisson arrivals at 4 Mops/s, <Linearizable, Synchronous>.
func openLoopCell(warmupNs, measureNs int64) Config {
	p := params.Default()
	p.Servers = 10
	return Config{
		Model: core.Model{C: core.Linearizable, P: core.Synchronous}, Workload: ycsb.WorkloadA, Params: p,
		Arrivals: &ycsb.ArrivalSpec{Shape: ycsb.ShapePoisson, RatePerSec: 4e6},
		Seed:     1, WarmupNs: warmupNs, MeasureNs: measureNs,
	}
}

// TestCellAllocsPerOp is the cell-level allocation guard beside the
// round-level ones in internal/protocol/alloc_test.go: those drive one round
// in isolation, a cell adds clients, sessions, squashed transactions, first
// touches of 10,000 key states and mid-run slab growth. Every binding runs the
// repo benchmark's flat_matrix cell (5 servers x 20 closed-loop clients,
// YCSB-A, 0.2 ms warm-up + 0.15 ms measured), plus one 16-shard, one
// open-loop and one scale160-shaped cell (160 nodes, 32 shards). A ceiling is
// the count measured once causal histories, transaction and scope lists and
// the pooled records all came from recycled or chunk-carved storage, plus
// 15%, or plus 0.25 where that is more — a closure or a first-touch
// allocation per op adds 1 or more, slab growth moving by a few objects
// should not trip it — rounded up to a tenth. The comment column holds that
// count and the count when every continuation and completion was a closure,
// 15 to 90 times the ceiling. Counts are exact per seed and Go release;
// CELLALLOC_PRINT=1 prints them for re-pinning.
func TestCellAllocsPerOp(t *testing.T) {
	ceilings := map[core.Model]float64{
		{C: core.Linearizable, P: core.Strict}:         0.4, // 0.12 measured; 19.23 with closures
		{C: core.Linearizable, P: core.Synchronous}:    0.5, // 0.19; 28.21
		{C: core.Linearizable, P: core.ReadEnforcedP}:  0.4, // 0.14; 23.72
		{C: core.Linearizable, P: core.Scope}:          0.4, // 0.11; 24.46
		{C: core.Linearizable, P: core.EventualP}:      0.4, // 0.07; 13.59
		{C: core.ReadEnforcedC, P: core.Strict}:        0.4, // 0.11; 19.22
		{C: core.ReadEnforcedC, P: core.Synchronous}:   0.5, // 0.17; 17.41
		{C: core.ReadEnforcedC, P: core.ReadEnforcedP}: 0.5, // 0.21; 22.05
		{C: core.ReadEnforcedC, P: core.Scope}:         0.6, // 0.27; 30.43
		{C: core.ReadEnforcedC, P: core.EventualP}:     0.5, // 0.17; 16.77
		// Transactional: squashed attempts and the most records first used
		// in the short window.
		{C: core.Transactional, P: core.Strict}:        0.7, // 0.36; 53.90
		{C: core.Transactional, P: core.Synchronous}:   0.6, // 0.25; 53.33
		{C: core.Transactional, P: core.ReadEnforcedP}: 0.5, // 0.20; 47.55
		{C: core.Transactional, P: core.Scope}:         0.9, // 0.57; 57.73
		{C: core.Transactional, P: core.EventualP}:     0.5, // 0.19; 44.36
		{C: core.Causal, P: core.Strict}:               0.5, // 0.15; 25.72
		{C: core.Causal, P: core.Synchronous}:          0.4, // 0.07; 16.26
		{C: core.Causal, P: core.ReadEnforcedP}:        0.4, // 0.06; 14.06
		{C: core.Causal, P: core.Scope}:                0.4, // 0.09; 25.97
		{C: core.Causal, P: core.EventualP}:            0.3, // 0.02; 16.36
		{C: core.Eventual, P: core.Strict}:             0.4, // 0.06; 13.54
		{C: core.Eventual, P: core.Synchronous}:        0.3, // 0.02; 6.61
		{C: core.Eventual, P: core.ReadEnforcedP}:      0.4, // 0.05; 7.39
		{C: core.Eventual, P: core.Scope}:              0.4, // 0.08; 18.65
		{C: core.Eventual, P: core.EventualP}:          0.3, // 0.02; 10.55
	}
	type row struct {
		name    string
		cfg     Config
		ceiling float64
	}
	var rows []row
	for _, md := range core.AllModels() {
		ceiling, ok := ceilings[md]
		if !ok {
			t.Fatalf("no ceiling for %s", md)
		}
		rows = append(rows, row{md.String(), Config{
			Model: md, Workload: ycsb.WorkloadA, Params: params.Default(),
			Seed: 1, WarmupNs: 200_000, MeasureNs: 150_000,
		}, ceiling})
	}
	rows = append(rows, row{"sharded16 <Eventual, Eventual>", sharded16Cell(200_000, 300_000), 0.4})        // 0.08; 6.22
	rows = append(rows, row{"openloop <Linearizable, Synchronous>", openLoopCell(200_000, 1_000_000), 0.4}) // 0.12; 14.58
	rows = append(rows, row{"scale160 <Eventual, Eventual>", scaleCell(160, 200_000, 300_000), 0.4})        // 0.08; 0.46 with bound completions
	print := os.Getenv("CELLALLOC_PRINT") != ""
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got := cellAllocs(t, r.cfg)
			if print {
				t.Logf("%.2f allocs/op (ceiling %.1f)", got, r.ceiling)
			}
			if got > r.ceiling {
				t.Errorf("%.2f allocs per op, want <= %.1f", got, r.ceiling)
			}
		})
	}
}
