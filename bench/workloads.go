package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/ycsb"
)

// cell is one pinned simulation: a cluster.Config minus the seed, which the
// run supplies. name is unique inside its workload and keys the goldens.
type cell struct {
	name string
	cfg  cluster.Config
	// table1 marks the three cells of the paper's Table 1; they feed the
	// accuracy figure and stay out of the per-binding host costs.
	table1 bool
}

// workload is a fixed, ordered cell list run by one driver thread: the next
// cell starts when the previous one returns.
type workload struct {
	name  string
	why   string
	cells []cell
	// lpCell indexes the cell the traced run repeats once on the LP engine
	// (IntraParallel 2) for the sim.lp_* layer numbers.
	lpCell int
	// rf is the replicas per shard (0 on flat workloads), needed to read
	// the busiest group's imbalance off Result.NodeOps.
	rf int
}

// sizing scales the simulated windows written out below, which are the
// issue's: they give a ~4 s rep on the reference host. Cell shapes never
// scale.
type sizing struct{ warmup, measure float64 }

var (
	// fullSize is what the benchmark runs. The builder's contract caps a
	// whole run (three cold children plus their timed reps) near 25 s, so
	// the measured windows shrink to a quarter; warm-ups stay.
	fullSize = sizing{warmup: 1, measure: 0.25}
	// smokeSize keeps the tests under ten seconds.
	smokeSize = sizing{warmup: 0.1, measure: 0.01}
)

// windows fills in a cell's simulated warm-up and measured window.
func (sz sizing) windows(cfg cluster.Config, warmupNs, measureNs int64) cluster.Config {
	cfg.WarmupNs = int64(float64(warmupNs) * sz.warmup)
	cfg.MeasureNs = int64(float64(measureNs) * sz.measure)
	return cfg
}

var consistencyTag = map[core.Consistency]string{
	core.Linearizable: "lin", core.ReadEnforcedC: "re", core.Transactional: "txn",
	core.Causal: "causal", core.Eventual: "ev",
}

var persistencyTag = map[core.Persistency]string{
	core.Strict: "strict", core.Synchronous: "sync", core.ReadEnforcedP: "re",
	core.Scope: "scope", core.EventualP: "ev",
}

// bindingTag renders a model as "<c>-<p>", the form metric names use.
func bindingTag(m core.Model) string {
	return consistencyTag[m.C] + "-" + persistencyTag[m.P]
}

func model(c core.Consistency, p core.Persistency) core.Model { return core.Model{C: c, P: p} }

// table1Cells are Section 3's motivation experiment: 3 servers x 8
// closed-loop clients, write-only, under the three strictness environments
// whose normalised throughputs the paper reports as 1 / 1.32 / 4.08.
func table1Cells(sz sizing) []cell {
	p := params.Default()
	p.Servers = 3
	p.ClientsPerServer = 8
	var out []cell
	for _, m := range []core.Model{
		model(core.Linearizable, core.Synchronous),
		model(core.Linearizable, core.EventualP),
		model(core.Eventual, core.EventualP),
	} {
		out = append(out, cell{
			name: "t1." + bindingTag(m),
			cfg: sz.windows(cluster.Config{
				Model:    m,
				Workload: ycsb.Workload{Name: "write-only", ReadRatio: 0},
				Params:   p,
			}, 200_000, 600_000),
			table1: true,
		})
	}
	return out
}

func flatMatrix(sz sizing) workload {
	w := workload{
		name: "flat_matrix",
		why: "Figure 6 shape: all 25 bindings on the flat 5x20 closed-loop cell plus Table 1; " +
			"deep queues, contended broadcasts, elision layers idle",
		lpCell: 1, // <Lin,Sync>
	}
	for _, m := range core.AllModels() {
		w.cells = append(w.cells, cell{
			name: bindingTag(m),
			cfg: sz.windows(cluster.Config{
				Model:    m,
				Workload: ycsb.WorkloadA,
				Params:   params.Default(),
			}, 200_000, 600_000),
		})
	}
	w.cells = append(w.cells, table1Cells(sz)...)
	return w
}

func sparseOpenLoop(sz sizing) workload {
	w := workload{
		name: "sparse_openloop",
		why: "10 servers, open-loop arrivals far below the knee: shallow queues and isolated rounds, " +
			"the regime the NIC fast path, fan-out fusion and NVM trains were built for",
		lpCell: 1, // <Lin,Sync>
	}
	p := params.Default()
	p.Servers = 10
	for _, c := range []struct {
		m     core.Model
		wl    ycsb.Workload
		shape ycsb.ArrivalShape
		rate  float64
	}{
		{model(core.Linearizable, core.Strict), ycsb.WorkloadW, ycsb.ShapePoisson, 2e6},
		{model(core.Linearizable, core.Synchronous), ycsb.WorkloadA, ycsb.ShapePoisson, 4e6},
		{model(core.Causal, core.Synchronous), ycsb.WorkloadA, ycsb.ShapePoisson, 8e6},
		{model(core.Eventual, core.EventualP), ycsb.WorkloadB, ycsb.ShapePoisson, 8e6},
		{model(core.Eventual, core.Strict), ycsb.WorkloadW, ycsb.ShapeBursty, 4e6},
	} {
		w.cells = append(w.cells, cell{
			name: bindingTag(c.m),
			cfg: sz.windows(cluster.Config{
				Model:    c.m,
				Workload: c.wl,
				Params:   p,
				Arrivals: &ycsb.ArrivalSpec{Shape: c.shape, RatePerSec: c.rate},
			}, 1_000_000, 20_000_000),
		})
	}
	return w
}

func shardedSkew(sz sizing) workload {
	w := workload{
		name: "sharded_skew",
		why: "48 nodes = 16 shards x rf 3 under zipf 0.999: ~94% of ops cross the router, " +
			"used three ways (hash, load placement, replica reads + batching)",
		rf: 3,
	}
	p := params.Default()
	p.Servers = 48
	p.ClientsPerServer = 2
	p.ZipfTheta = 0.999
	lin := model(core.Linearizable, core.Strict)
	ev := model(core.Eventual, core.EventualP)
	for _, c := range []struct {
		name      string
		m         core.Model
		placement string
		rr        bool
		batch     int
	}{
		{"lin-strict.hash", lin, "hash", false, 0},
		{"lin-strict.load", lin, "load", false, 0},
		{"ev-ev.hash", ev, "hash", false, 0},
		{"ev-ev.load-rr", ev, "load", true, 0},
		{"ev-ev.load-rr-batch8", ev, "load", true, 8},
	} {
		w.cells = append(w.cells, cell{
			name: c.name,
			cfg: sz.windows(cluster.Config{
				Model:        c.m,
				Workload:     ycsb.WorkloadA,
				Params:       p,
				Shards:       16,
				Placement:    c.placement,
				ReplicaReads: c.rr,
				FwdBatch:     c.batch,
			}, 500_000, 4_000_000),
		})
	}
	return w
}

func scale160(sz sizing) workload {
	w := workload{
		name: "scale160",
		why: "160 nodes = 32 shards x rf 5, 20 clients/server: the largest cell of the scaling study; " +
			"per-event host cost, cluster.New and memory footprint show here only",
		lpCell: 1, // <Lin,Sync>
		rf:     5,
	}
	p := params.Default()
	p.Servers = 160
	for _, m := range []core.Model{
		model(core.Eventual, core.EventualP),
		model(core.Linearizable, core.Synchronous),
	} {
		w.cells = append(w.cells, cell{
			name: bindingTag(m),
			cfg: sz.windows(cluster.Config{
				Model:    m,
				Workload: ycsb.WorkloadA,
				Params:   p,
				Shards:   32,
			}, 200_000, 800_000),
		})
	}
	return w
}

func workloads(sz sizing) []workload {
	return []workload{flatMatrix(sz), sparseOpenLoop(sz), shardedSkew(sz), scale160(sz)}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads(fullSize) {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
