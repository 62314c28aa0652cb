package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/ycsb"
)

// scaleCell is the scaling study's <Ev,Ev> YCSB-A cell at the given node
// count: replica groups of 5 (Shards = nodes/5), 20 closed-loop clients per
// server, seed 1. At 160 nodes it is the repo benchmark's scale160 <Ev,Ev>
// cell.
func scaleCell(nodes int, warmupNs, measureNs int64) Config {
	p := params.Default()
	p.Servers = nodes
	return Config{
		Model: core.Model{C: core.Eventual, P: core.EventualP}, Workload: ycsb.WorkloadA,
		Params: p, Shards: nodes / 5, Seed: 1, WarmupNs: warmupNs, MeasureNs: measureNs,
	}
}

// BenchmarkEventCostBySize measures the host cost of one simulated event as
// the cluster grows: the scaling study's <Ev,Ev> YCSB-A cell (replica groups
// of 5, Shards = N/5, 20 closed-loop clients per server) at 40, 160 and 320
// nodes, reported as ns/event over the run alone (construction is untimed).
// The work per event is the same at every size, so a cost that climbs with N
// is per-node state outgrowing the cache. `make scalecost` runs it;
// EXPERIMENTS.md "Per-node state" records the table.
func BenchmarkEventCostBySize(b *testing.B) {
	for _, nodes := range []int{40, 160, 320} {
		cfg := scaleCell(nodes, 100_000, 200_000)
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var events uint64
			var run time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				c.Start()
				b.StartTimer()
				start := time.Now()
				c.Eng.Run(cfg.WarmupNs + cfg.MeasureNs)
				run += time.Since(start)
				events += c.Eng.Processed()
				c.Close()
			}
			b.ReportMetric(float64(run.Nanoseconds())/float64(events), "ns/event")
			b.ReportMetric(float64(events)/float64(b.N), "events")
		})
	}
}
