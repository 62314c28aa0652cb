// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation, one testing.B benchmark per artifact. Each
// iteration runs the full (scaled-down with -short semantics via the Quick
// options) experiment; use cmd/ddpbench for full-scale paper-shaped output.
//
//	go test -bench=. -benchmem
package repro_test

import (
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
