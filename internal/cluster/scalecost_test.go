package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/ycsb"
)

// BenchmarkEventCostBySize measures the host cost of one simulated event as
// the cluster grows: the scaling study's <Ev,Ev> YCSB-A cell (replica groups
// of 5, Shards = N/5, 20 closed-loop clients per server) at 40, 160 and 320
// nodes, reported as ns/event over the run alone (construction is untimed).
// The work per event is the same at every size, so a cost that climbs with N
// is per-node state outgrowing the cache. `make scalecost` runs it;
// EXPERIMENTS.md "Per-node state" records the table.
func BenchmarkEventCostBySize(b *testing.B) {
	for _, nodes := range []int{40, 160, 320} {
		p := params.Default()
		p.Servers = nodes
		cfg := Config{
			Model: core.Model{C: core.Eventual, P: core.EventualP}, Workload: ycsb.WorkloadA,
			Params: p, Shards: nodes / 5, Seed: 1, WarmupNs: 100_000, MeasureNs: 200_000,
		}
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
