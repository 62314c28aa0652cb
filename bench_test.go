// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation, one testing.B benchmark per artifact. Each
// iteration runs the full (scaled-down with -short semantics via the Quick
// options) experiment; use cmd/ddpbench for full-scale paper-shaped output.
//
//	go test -bench=. -benchmem
package repro_test

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/params"
	"repro/internal/ycsb"
)

// benchOptions picks a reduced-but-representative configuration so the
// whole suite completes in minutes. ddpbench without -quick runs the
// full-scale version.
func benchOptions() harness.Options {
	o := harness.DefaultOptions()
	o.WarmupNs = 300_000
	o.MeasureNs = 1_200_000
	return o
}

func reportThroughput(b *testing.B, name string, v float64) {
	b.ReportMetric(v, name)
}

// BenchmarkSingleCellLPs measures one full-scale <Linearizable, Synchronous>
// cell (5 servers x 20 clients, the paper's default) on the intra-cell
// logical-process engine at 1, 2, and 4 workers, against the sequential
// engine as baseline. Results are byte-identical across all four variants
// (see internal/cluster's differential tests); only wall-clock time may
// differ. results/BENCH_pdes.json records a measured before/after pair.
func BenchmarkSingleCellLPs(b *testing.B) {
	base := cluster.Config{
		Model:     core.Model{C: core.Linearizable, P: core.Synchronous},
		Workload:  ycsb.WorkloadA,
		Params:    params.Default(),
		Seed:      1,
		WarmupNs:  1_000_000,
		MeasureNs: 5_000_000,
	}
	run := func(b *testing.B, cfg cluster.Config) {
		for i := 0; i < b.N; i++ {
			r, err := cluster.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(r.Events), "events")
				b.ReportMetric(r.Throughput()/1e6, "Mops/sim-s")
			}
		}
	}
	b.Run("sequential", func(b *testing.B) { run(b, base) })
	for _, w := range []int{1, 2, 4} {
		cfg := base
		cfg.IntraParallel = w
		b.Run(fmt.Sprintf("lps=%d", w), func(b *testing.B) { run(b, cfg) })
	}
}

// BenchmarkShardedCell measures one <Linearizable, Synchronous> cell with
// the keyspace consistent-hash-partitioned across replica groups of 3, at
// 1/4/16 shards (3–48 nodes), on the sequential and the logical-process
// engine. Every shard runs the full VP x DP protocol; ~ (S-1)/S of client
// ops pay the forwarding round-trip. results/BENCH_sharding.json records a
// measured set of points.
func BenchmarkShardedCell(b *testing.B) {
	p := params.Default()
	p.Servers = 3 // per-shard replication factor
	p.ClientsPerServer = 4
	base := cluster.Config{
		Model:     core.Model{C: core.Linearizable, P: core.Synchronous},
		Workload:  ycsb.WorkloadA,
		Params:    p,
		Seed:      1,
		WarmupNs:  500_000,
		MeasureNs: 2_000_000,
	}
	for _, shards := range []int{1, 4, 16} {
		cfg := base
		cfg.Shards = shards
		cfg.Params.Servers = shards * p.Servers
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := cluster.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(r.Events), "events")
					b.ReportMetric(r.Throughput()/1e6, "Mops/sim-s")
					b.ReportMetric(float64(r.Routed), "routed")
				}
			}
		})
		if shards > 1 {
			lp := cfg
			lp.IntraParallel = 4
			b.Run(fmt.Sprintf("shards=%d/lps=4", shards), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cluster.Run(lp); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkClusterNew measures construction alone — the cost every cell pays
// before its first event — on the paper's flat 5x20 cell and on the scaling
// study's largest one (160 nodes = 32 shards x rf 5, 20 clients per server).
// Run with -benchmem: B/op is the footprint a fresh cluster holds.
func BenchmarkClusterNew(b *testing.B) {
	flat := cluster.Config{
		Model:    core.Model{C: core.Linearizable, P: core.Synchronous},
		Workload: ycsb.WorkloadA,
		Params:   params.Default(),
		Seed:     1,
	}
	big := flat
	big.Params.Servers = 160
	big.Shards = 32
	for _, c := range []struct {
		name string
		cfg  cluster.Config
	}{{"flat5x20", flat}, {"160x20-shards32", big}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cl, err := cluster.New(c.cfg)
				if err != nil {
					b.Fatal(err)
				}
				cl.Close()
			}
		})
	}
}

// groupImbalance mirrors the harness metric: max/mean executed ops across
// the replicas of the busiest shard's group — the coordinator concentration
// that load-aware placement and replica reads attack.
func groupImbalance(r *cluster.Result, rf int) float64 {
	hot := 0
	for s, n := range r.ShardOps {
		if n > r.ShardOps[hot] {
			hot = s
		}
	}
	var sum, max uint64
	for _, n := range r.NodeOps[hot*rf : hot*rf+rf] {
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

// BenchmarkSkewedShardedCell measures the skew-adaptive routing ablation on a
// 16-shard, rf=3 cell under heavy zipfian key popularity (theta=0.999):
// fixed-hash coordinator placement against load-aware spreading on a strict
// corner, plus least-loaded replica reads and batched forwarding on the
// weak-visibility corner. Shard totals are fixed by data ownership, so the
// metrics that move are throughput and the node/group imbalances.
// results/BENCH_skew.json records a measured set of points.
func BenchmarkSkewedShardedCell(b *testing.B) {
	p := params.Default()
	p.Servers = 48 // 16 shards x rf=3
	p.ClientsPerServer = 2
	p.ZipfTheta = 0.999
	base := cluster.Config{
		Workload:  ycsb.WorkloadA,
		Params:    p,
		Shards:    16,
		Seed:      1,
		WarmupNs:  500_000,
		MeasureNs: 2_000_000,
	}
	lin := core.Model{C: core.Linearizable, P: core.Strict}
	ev := core.Model{C: core.Eventual, P: core.EventualP}
	variants := []struct {
		name  string
		model core.Model
		mut   func(*cluster.Config)
	}{
		{"lin-strict/hash", lin, func(*cluster.Config) {}},
		{"lin-strict/load", lin, func(c *cluster.Config) { c.Placement = "load" }},
		{"ev-ev/hash", ev, func(*cluster.Config) {}},
		{"ev-ev/load", ev, func(c *cluster.Config) { c.Placement = "load" }},
		{"ev-ev/load+rr", ev, func(c *cluster.Config) {
			c.Placement = "load"
			c.ReplicaReads = true
		}},
		{"ev-ev/load+rr/fwdbatch=8", ev, func(c *cluster.Config) {
			c.Placement = "load"
			c.ReplicaReads = true
			c.FwdBatch = 8
		}},
	}
	for _, v := range variants {
		cfg := base
		cfg.Model = v.model
		v.mut(&cfg)
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r, err := cluster.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(r.Throughput()/1e6, "Mops/sim-s")
					b.ReportMetric(groupImbalance(r, 3), "group-imb")
					b.ReportMetric(float64(r.NetMessages), "msgs")
				}
			}
		})
	}
}

// BenchmarkTable1 regenerates the Section 3 motivation experiment
// (paper: normalized throughput 1 / 1.32 / 4.08).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.Table1(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportThroughput(b, "env2_norm", t.Rows[1].Normalized)
		reportThroughput(b, "env3_norm", t.Rows[2].Normalized)
	}
}

// BenchmarkFigure6 regenerates the 25-model performance comparison
// (Figure 6, YCSB-A): throughput plus mean/p95 read and write latencies,
// all normalized to <Linearizable, Synchronous>.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure6(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		f.WriteText(io.Discard)
	}
}

// BenchmarkFigure7 regenerates the client-count sensitivity sweep
// (10/100/150 clients; paper: <Lin,Sync> ~2.2x better at 10 than at 100).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure7(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		f.WriteText(io.Discard)
	}
}

// BenchmarkFigure8 regenerates the network round-trip sensitivity sweep
// (0.5/1/2 us; paper: <Lin,Sync> loses ~12% at 2 us, Causal flat).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure8(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		f.WriteText(io.Discard)
	}
}

// BenchmarkFigure9 regenerates the workload-mix sensitivity sweep
// (B/A/W; paper: read-heavy workloads are less model-sensitive).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := harness.Figure9(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		f.WriteText(io.Discard)
	}
}

// BenchmarkTable4 regenerates the qualitative trade-off table with measured
// monotonic/non-stale evidence from crash experiments.
func BenchmarkTable4(b *testing.B) {
	o := benchOptions()
	o = o.Quick() // crash experiments for ten models; keep each small
	for i := 0; i < b.N; i++ {
		t, err := harness.Table4(o)
		if err != nil {
			b.Fatal(err)
		}
		t.WriteText(io.Discard)
	}
}

// BenchmarkPaperStats regenerates the Section 8.1.2 headline statistics
// (<Ev,Ev> 3.3x speedup, >30% read conflicts under <RE,RE>, causal
// buffering gap, ~30% transaction conflicts).
func BenchmarkPaperStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := harness.PaperStats(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		reportThroughput(b, "evev_speedup", s.EvEvSpeedup)
		reportThroughput(b, "rere_conflict", s.REREReadConflictRate)
		reportThroughput(b, "xact_conflict", s.XactConflictRate)
	}
}

// BenchmarkDurabilityAudit crashes all 25 models mid-run and audits what
// survives (Section 3's data-loss motivation, measured).
func BenchmarkDurabilityAudit(b *testing.B) {
	o := benchOptions().Quick()
	for i := 0; i < b.N; i++ {
		d, err := harness.DurabilityAudit(o)
		if err != nil {
			b.Fatal(err)
		}
		d.WriteText(io.Discard)
	}
}

// BenchmarkAblations quantifies the paper's design choices: broadcast vs
// the rejected serially-visiting propagation (Section 5), and per-key
// persist coalescing.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := harness.Ablations(benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		a.WriteText(io.Discard)
	}
}

// BenchmarkRecoveryTimes models post-crash recovery duration per model
// (Section 9: strict models recover simply; weak models add voting).
func BenchmarkRecoveryTimes(b *testing.B) {
	o := benchOptions().Quick()
	for i := 0; i < b.N; i++ {
		r, err := harness.RecoveryTimes(o)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
	}
}

// BenchmarkNICFastPath measures the flow-level delivery fast path on two
// cell shapes: the paper's default <Lin, Sync> cell (heavily multiplexed —
// the shared-engine gap proof rarely holds, so hits are modest) and an
// uncontended fig6-style cell (sparse flows — most arrivals deliver in one
// dispatch). Results are byte-identical on and off (see
// TestNICFastPathDifferential); only event counts and wall time change.
// results/BENCH_openloop.json records a measured before/after pair.
func BenchmarkNICFastPath(b *testing.B) {
	shapes := []struct {
		name string
		mut  func(*cluster.Config)
	}{
		{"default-5x20", func(cfg *cluster.Config) {}},
		{"uncontended-3x1", func(cfg *cluster.Config) {
			cfg.Params.Servers = 3
			cfg.Params.ClientsPerServer = 1
		}},
	}
	for _, sh := range shapes {
		base := cluster.Config{
			Model:     core.Model{C: core.Linearizable, P: core.Synchronous},
			Workload:  ycsb.WorkloadA,
			Params:    params.Default(),
			Seed:      1,
			WarmupNs:  1_000_000,
			MeasureNs: 5_000_000,
		}
		sh.mut(&base)
		for _, fast := range []bool{false, true} {
			cfg := base
			cfg.NoNICFastPath = !fast
			name := sh.name + "/off"
			if fast {
				name = sh.name + "/on"
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					r, err := cluster.Run(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(r.Events), "events")
						b.ReportMetric(float64(r.NetFastHops), "fasthops")
					}
				}
			})
		}
	}
}

// BenchmarkOpenLoop measures the open-loop load engine: a near-knee Poisson
// cell and the million-session overload ramp (one underprovisioned node,
// 2G arrivals/s). The issue path allocates nothing in steady state
// (TestOpenLoopSessionPoolZeroAlloc); in-flight records are the only cost.
func BenchmarkOpenLoop(b *testing.B) {
	b.Run("poisson-near-knee", func(b *testing.B) {
		cfg := cluster.Config{
			Model:     core.Model{C: core.Linearizable, P: core.Synchronous},
			Workload:  ycsb.WorkloadA,
			Params:    params.Default(),
			Seed:      1,
			WarmupNs:  300_000,
			MeasureNs: 1_200_000,
			Arrivals:  &ycsb.ArrivalSpec{Shape: ycsb.ShapePoisson, RatePerSec: 20e6},
		}
		for i := 0; i < b.N; i++ {
			r, err := cluster.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(r.Offered), "offered")
				b.ReportMetric(float64(r.InflightPeak), "peak")
			}
		}
	})
	b.Run("million-sessions", func(b *testing.B) {
		cfg := cluster.Config{
			Model:     core.Model{C: core.Eventual, P: core.EventualP},
			Workload:  ycsb.WorkloadC,
			Params:    params.Default(),
			Seed:      1,
			WarmupNs:  100_000,
			MeasureNs: 500_000,
			Arrivals:  &ycsb.ArrivalSpec{Shape: ycsb.ShapePoisson, RatePerSec: 2e9},
		}
		cfg.Params.Servers = 1
		cfg.Params.WorkersPerServer = 1
		cfg.Params.RequestCompute = 500_000
		for i := 0; i < b.N; i++ {
			r, err := cluster.Run(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(r.InflightPeak), "peak")
			}
		}
	})
}

// BenchmarkCapacity runs the full offered-load sweep (4 corner models x
// 6 Poisson multiples + storms) at quick scale — the capacity experiment's
// cost envelope, and the CI smoke target.
func BenchmarkCapacity(b *testing.B) {
	o := benchOptions().Quick()
	for i := 0; i < b.N; i++ {
		r, err := harness.Capacity(o)
		if err != nil {
			b.Fatal(err)
		}
		r.WriteText(io.Discard)
	}
}
