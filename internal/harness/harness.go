// Package harness regenerates the paper's evaluation: every table and
// figure has a named experiment that runs the simulator and prints rows in
// the paper's layout (normalized to <Linearizable, Synchronous> where the
// paper normalizes).
package harness

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/recovery"
	"repro/internal/sweep"
	"repro/internal/ycsb"
)

// Options configures an experiment run.
type Options struct {
	// Config is the template every cell starts from: each cell sets its
	// own Model and Workload, and an experiment overrides only the knobs it
	// sweeps (Params fields, Shards, Arrivals, ...). Every other knob
	// reaches every cell unchanged, IntraParallel included, so a knob a
	// cell cannot honor fails there with Validate's per-field error instead
	// of being dropped. One field is read per cell: ReplicaReads applies to
	// the weak-visibility cells of a sweep only, since invalidation-based
	// models reject it.
	cluster.Config

	// Parallel is how many experiment cells run concurrently: 0 (the
	// default) uses every available core, 1 runs sequentially. Each cell is
	// an isolated deterministic simulation, so the setting never changes
	// any number an experiment reports — only how long it takes.
	Parallel int

	// Experiment names the experiment being run (set by RunNamed); it tags
	// cells' pprof labels as "<model>/<experiment>" so sweep profiles
	// attribute CPU samples per cell (see EXPERIMENTS.md, "Profiling").
	Experiment string

	// Progress, when non-nil, receives one line per completed cell so
	// long sweeps are observable (ddpbench points it at stderr). Lines are
	// serialized across concurrent cells and appear in completion order.
	Progress io.Writer

	// EventStats adds a per-cell scheduler line to Progress: events per
	// simulated second, peak pending-event depth, and the wheel/overflow
	// split (ddpbench -eventstats).
	EventStats bool
}

// DefaultOptions returns the paper's evaluation configuration.
func DefaultOptions() Options {
	return Options{Config: cluster.Config{
		Params:    params.Default(),
		Seed:      1,
		WarmupNs:  1_000_000,
		MeasureNs: 5_000_000,
	}}
}

// Quick shrinks an Options for fast smoke runs (tests, examples).
func (o Options) Quick() Options {
	o.Params.Servers = 3
	o.Params.ClientsPerServer = 4
	o.Params.Keys = 256
	o.WarmupNs = 200_000
	o.MeasureNs = 800_000
	return o
}

// config builds the cell of model m on workload w from the template.
func (o Options) config(m core.Model, w ycsb.Workload) cluster.Config {
	cfg := o.Config
	cfg.Model, cfg.Workload = m, w
	cfg.ReplicaReads = o.ReplicaReads && !core.RulesOf(m).InvAckVal
	return cfg
}

// progressLine prints the one-line completion record of a cell, plus the
// scheduler counters when stats is set.
func progressLine(w io.Writer, m core.Model, wl ycsb.Workload, r *cluster.Result, stats bool) {
	fmt.Fprintf(w, "  ran %-34s %-12s %8.2f Mops/s (%v wall)\n",
		m, wl.Name, r.Throughput()/1e6, r.WallTime.Round(time.Millisecond))
	if !stats {
		return
	}
	s := r.Sched
	evPerSec := float64(0)
	if r.SimTimeNs > 0 {
		evPerSec = float64(s.Processed) / (float64(r.SimTimeNs) / 1e9)
	}
	wheelPct := float64(0)
	if tot := s.Wheel + s.Overflow; tot > 0 {
		wheelPct = 100 * float64(s.Wheel) / float64(tot)
	}
	fmt.Fprintf(w, "      events %8.2f M/sim-s  max pending %6d  wheel %5.1f%%  overflow %d  turns %d\n",
		evPerSec/1e6, s.MaxPending, wheelPct, s.Overflow, s.Turns)
	if r.NetFastHops > 0 {
		fmt.Fprintf(w, "      elided hops: nic-fast %d\n", r.NetFastHops)
	}
	if lp := r.LP; lp.Workers > 1 {
		fmt.Fprintf(w, "      lp workers %d  lps %d  lookahead %dns  epochs %d  mail %d\n",
			lp.Workers, lp.LPs, lp.Lookahead, lp.Epochs, lp.Mail)
	}
	if shards := r.Config.Shards; shards > 0 {
		_, total := maxTotal(r.ShardOps)
		routedPct := float64(0)
		if total > 0 {
			routedPct = 100 * float64(r.Routed) / float64(total)
		}
		fmt.Fprintf(w, "      shards %d  nodes %d  rf %d  routed %5.1f%%  shard imbalance %.2fx\n",
			shards, r.Config.Params.Servers, r.Config.Params.Servers/shards,
			routedPct, imbalance(r.ShardOps))
		if r.Config.Placement == "load" || r.Config.ReplicaReads {
			fmt.Fprintf(w, "      placement %s  replica-reads %v  node imbalance %.2fx  group imbalance %.2fx\n",
				r.Config.Placement, r.Config.ReplicaReads,
				imbalance(r.NodeOps), groupImbalance(r, r.Config.Params.Servers/shards))
		}
	}
}

// cell is one (options, model, workload) cluster run in an experiment grid.
// Experiments enumerate their full grid up front and hand it to runCells, so
// independent cells spread across cores.
type cell struct {
	o Options
	m core.Model
	w ycsb.Workload
}

// onWorkloadA returns one cell per model on YCSB workload A.
func onWorkloadA(o Options, models []core.Model) []cell {
	cells := make([]cell, len(models))
	for i, m := range models {
		cells[i] = cell{o, m, ycsb.WorkloadA}
	}
	return cells
}

// progressMu serializes the progress lines of concurrent cells.
var progressMu sync.Mutex

// runCells runs every cell of a grid on up to parent.Parallel workers and
// returns what run makes of each, in cell order. run gets the cell's config
// and returns its outcome plus the cluster result its progress line reports.
// Each cell runs under the pprof label "cell" => "<model>/<experiment>", so
// CPU profiles of a sweep attribute samples per cell (go tool pprof
// -tagfocus); its progress line is written under progressMu, so the lines of
// concurrent cells never interleave. The first failing cell's error (by
// submission order) is returned after in-flight cells drain.
func runCells[R any](parent Options, cells []cell, run func(cluster.Config) (R, *cluster.Result, error)) ([]R, error) {
	return sweep.Map(cells, parent.Parallel, func(c cell) (out R, err error) {
		label := c.m.String()
		if parent.Experiment != "" {
			label += "/" + parent.Experiment
		}
		var r *cluster.Result
		pprof.Do(context.Background(), pprof.Labels("cell", label), func(context.Context) {
			out, r, err = run(c.o.config(c.m, c.w))
		})
		if err != nil {
			return out, fmt.Errorf("%s on %s: %w", c.m, c.w.Name, err)
		}
		if parent.Progress != nil {
			progressMu.Lock()
			progressLine(parent.Progress, c.m, c.w, r, parent.EventStats)
			progressMu.Unlock()
		}
		return out, nil
	})
}

// measured runs a cell through its warm-up and measurement windows.
func measured(cfg cluster.Config) (*cluster.Result, *cluster.Result, error) {
	r, err := cluster.Run(cfg)
	return r, r, err
}

// crashReports runs each model's workload-A cell to halfway through its
// measurement window, crashes every node, recovers by newest vote and
// returns the crash reports in model order. The instant reads the window
// after cluster's defaults, so a zero window crashes where a measured cell
// measures.
func crashReports(o Options, models []core.Model) ([]*recovery.CrashReport, error) {
	return runCells(o, onWorkloadA(o, models), func(cfg cluster.Config) (*recovery.CrashReport, *cluster.Result, error) {
		d := cfg.WithDefaults()
		rep, err := recovery.CrashAndRecover(cfg, d.WarmupNs+d.MeasureNs/2, nil)
		if err != nil {
			return nil, nil, err
		}
		return rep, rep.Result, nil
	})
}

// header prints an experiment banner.
func header(w io.Writer, title, note string) {
	fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("=", len(title)))
	if note != "" {
		fmt.Fprintf(w, "%s\n", note)
	}
}

// ratio guards division by zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// WriteModelReference prints the derived operational semantics of each of
// the 25 DDP models — a generated reference that always matches the protocol
// implementation.
func WriteModelReference(w io.Writer) {
	header(w, "The 25 DDP models: operational semantics",
		"Derived from the VP/DP bindings; matches internal/protocol by construction.")
	for _, m := range core.AllModels() {
		fmt.Fprintf(w, "\n%s\n", core.Describe(m))
	}
}
