package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
)

// traced accumulates the traced reps of a child. They feed no end-to-end
// number: each one follows an untraced rep, so the two kinds age with the
// process together and their walls compare fairly.
type traced struct {
	tr      *tracer
	samples []profSample
	walls   []float64
	perSpan map[string][]float64
	last    rep // results of the latest traced rep, for the counters
}

// rep runs one rep with spans recorded and the CPU profile on.
func (t *traced) rep(o childOpts, out *childResult) error {
	if t.tr == nil {
		t.tr, t.perSpan = newTracer(), map[string][]float64{}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	from := len(t.tr.spans)
	t.last = runRep(o.w, o.seed, t.tr, nil)
	pprof.StopCPUProfile()
	out.check(t.last)
	t.walls = append(t.walls, t.last.wallS)
	var covered float64
	for _, name := range spanNames {
		s := spanSeconds(t.tr.spans[from:], name)
		t.perSpan[name] = append(t.perSpan[name], s)
		covered += s
	}
	fmt.Fprintf(o.log, "traced rep %d: wall %.4f s, layer spans cover %.1f%%\n",
		len(t.walls), t.last.wallS, 100*covered/t.last.wallS)
	samples, err := decodeProfile(prof.Bytes())
	t.samples = append(t.samples, samples...)
	return err
}

// finish produces every per-layer metric of a traced child: span medians and
// profile shares of the traced reps, exact counters off the last one's
// results, per-binding host costs off the untraced reps, one LP run, the
// Table 1 accuracy figure and the isolated kernels.
func (t *traced) finish(o childOpts, out *childResult) error {
	layer := map[string]float64{}
	out.Layer = layer
	for _, name := range spanNames {
		layer[name] = stats.MedianOf(t.perSpan[name])
	}
	layer["trace.overhead_pct"] = 100 * (stats.MedianOf(t.walls)/stats.MedianOf(out.WallS) - 1)
	tracePath := filepath.Join(o.outDir, "trace-"+o.w.name+".json")
	if err := t.tr.write(tracePath); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "trace: %d spans in %s\n", len(t.tr.spans), tracePath)

	shares, n := profileShares(t.samples)
	fmt.Fprintf(o.log, "profile: %d CPU samples inside Engine.Run spans or unlabelled\n", n)
	for name, pct := range shares {
		layer[name] = pct
	}

	layer["runtime.peak_rss_mb"] = out.PeakRSSMB
	counters(o.w, t.last, layer)
	bindingCosts(o.w, out, layer)
	if err := lpRun(o, out, layer); err != nil {
		return err
	}

	t1 := map[string]*cluster.Result{}
	for _, c := range table1Cells(o.size) {
		run := runCell(c, o.seed, nil, nil)
		out.Attempted++
		if run.err != nil {
			out.fail("cell %s: %v", c.name, run.err)
			continue
		}
		t1[c.name] = run.res
	}
	layer["harness.paper_err_pct"], _ = paperErrPct(t1)

	ks, err := runKernels(o.log, o.kernelShrink)
	if err != nil {
		return err
	}
	for name, ns := range ks {
		layer[name] = ns
	}
	return nil
}

// gcFrames mark a stack as allocator or collector work.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice", "runtime.makemap",
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart", "runtime.gcMark",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.wbBufFlush", "runtime.(*mcache)", "runtime.(*mheap)",
}

// profileShares attributes CPU samples to layers by leaf function: a leaf in
// repro/internal/<pkg> is that package's self time; any other leaf is
// runtime.malloc_gc_pct when its stack passes through the allocator or the
// collector and runtime.other_pct otherwise. Only samples taken inside the
// Engine.Run spans count, plus unlabelled ones: the runtime's own goroutines
// (background mark and sweep) inherit no labels. The rows sum to 100; n is
// the number of samples behind them.
func profileShares(samples []profSample) (shares map[string]float64, n int64) {
	shares = map[string]float64{"runtime.malloc_gc_pct": 0, "runtime.other_pct": 0}
	for _, p := range profilePackages {
		shares[p+".self_pct"] = 0
	}
	for _, s := range samples {
		if sp, ok := s.labels["span"]; ok && !strings.HasPrefix(sp, "sim.run_") {
			continue
		}
		if len(s.stack) == 0 {
			continue
		}
		row := "runtime.other_pct"
		if rest, ok := strings.CutPrefix(s.stack[0], "repro/internal/"); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if _, known := shares[pkg+".self_pct"]; known {
				row = pkg + ".self_pct"
			}
		} else if inGC(s.stack) {
			row = "runtime.malloc_gc_pct"
		}
		shares[row] += float64(s.count)
		n += s.count
	}
	if n > 0 {
		for row := range shares {
			shares[row] *= 100 / float64(n)
		}
	}
	return shares, n
}

func inGC(stack []string) bool {
	for _, fn := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
	}
	return false
}

// counters sums the exact per-layer counts of one rep's results into layer.
func counters(w workload, r rep, layer map[string]float64) {
	var ops, shardOps uint64
	var cells, sharded float64
	add := func(name string, v float64) { layer[name] += v }
	peak := func(name string, v float64) { layer[name] = math.Max(layer[name], v) }
	// Rows a flat workload never touches still report 0.
	for _, name := range []string{"cluster.node_imbalance", "cluster.group_imbalance", "cluster.routed_share"} {
		layer[name] = 0
	}
	for _, run := range r.cells {
		res := run.res
		if res == nil {
			continue
		}
		cells++
		ops += res.Summary.Ops
		add("sim.events", float64(res.Events))
		add("sim.ingress_dispatches", float64(res.Sched.Ingress))
		add("sim.overflow_events", float64(res.Sched.Overflow))
		peak("sim.max_pending", float64(res.Sched.MaxPending))
		add("simnet.messages", float64(res.NetMessages))
		add("simnet.bytes", float64(res.NetBytes))
		add("simnet.fast_hops", float64(res.NetFastHops))
		add("simnet.fused_hops", float64(res.NetFusedHops))
		add("simnet.chained_hops", float64(res.NetChainedHops))
		add("nvm.completions", float64(res.DevFusedComps+res.DevSchedComps))
		add("nvm.fused_completions", float64(res.DevFusedComps))
		add("nvm.mean_wait_ns", res.NVMMeanWaitNs)
		peak("nvm.max_queue", float64(res.NVMMaxQueue))
		add("protocol.reads", float64(res.Protocol.Reads))
		add("protocol.writes", float64(res.Protocol.Writes))
		add("protocol.persists", float64(res.Protocol.Persists))
		add("protocol.read_stall_ns", float64(res.Protocol.ReadStallTime))
		add("protocol.write_stall_ns", float64(res.Protocol.WriteStallTime))
		add("protocol.txn_squashed", float64(res.Protocol.TxnSquashed))
		add("protocol.buffered_updates", float64(res.Protocol.BufferedUpdates))
		add("cluster.worker_wait_ns", res.WorkerMeanWait)
		add("cluster.routed_ops", float64(res.Routed))
		add("cluster.offered", float64(res.Offered))
		add("cluster.completed", float64(res.Completed))
		peak("cluster.inflight_peak", float64(res.InflightPeak))
		if len(res.NodeOps) > 0 {
			sharded++
			for _, n := range res.ShardOps {
				shardOps += n
			}
			add("cluster.node_imbalance", imbalance(res.NodeOps))
			hot := 0
			for s, n := range res.ShardOps {
				if n > res.ShardOps[hot] {
					hot = s
				}
			}
			add("cluster.group_imbalance", imbalance(res.NodeOps[hot*w.rf:(hot+1)*w.rf]))
		}
	}
	// Means over the cells (device and worker waits) and over the sharded
	// cells (imbalances); everything else above is a sum or a peak.
	if cells > 0 {
		layer["nvm.mean_wait_ns"] /= cells
		layer["cluster.worker_wait_ns"] /= cells
	}
	if sharded > 0 {
		layer["cluster.node_imbalance"] /= sharded
		layer["cluster.group_imbalance"] /= sharded
		layer["cluster.routed_share"] = layer["cluster.routed_ops"] / float64(shardOps)
	}
	if ops > 0 {
		layer["sim.events_per_op"] = layer["sim.events"] / float64(ops)
	}
}

// imbalance is max/mean of executed ops: 1 is perfectly balanced.
func imbalance(ops []uint64) float64 {
	var sum, max uint64
	for _, n := range ops {
		sum += n
		if n > max {
			max = n
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) * float64(len(ops)) / float64(sum)
}

// bindingCosts fills protocol.<c>-<p>.host_ns_per_op: wall of the workload's
// cells running that binding divided by their simulated ops, median over the
// timed reps; 0 for a binding the workload does not run. The Table 1 cells
// stay out, so on flat_matrix each row is exactly one 5x20 cell.
func bindingCosts(w workload, out *childResult, layer map[string]float64) {
	for _, m := range core.AllModels() {
		layer["protocol."+bindingTag(m)+".host_ns_per_op"] = 0
	}
	byBinding := map[string][]int{}
	for i, c := range w.cells {
		if !c.table1 {
			tag := bindingTag(c.cfg.Model)
			byBinding[tag] = append(byBinding[tag], i)
		}
	}
	for tag, idx := range byBinding {
		var ops uint64
		for _, i := range idx {
			ops += out.cellOps[i]
		}
		if ops == 0 {
			continue
		}
		perRep := make([]float64, len(out.cellWalls))
		for r, walls := range out.cellWalls {
			for _, i := range idx {
				perRep[r] += walls[i]
			}
			perRep[r] *= 1e9 / float64(ops)
		}
		layer["protocol."+tag+".host_ns_per_op"] = stats.MedianOf(perRep)
	}
}

// lpRun repeats the workload's LP cell once with IntraParallel 2. The LP
// engine promises byte-identical results, so its digest is checked like any
// other run of the cell; the wall ratio is against the cell's median
// sequential wall over the timed reps.
func lpRun(o childOpts, out *childResult, layer map[string]float64) error {
	c := o.w.cells[o.w.lpCell]
	cfg := c.cfg
	cfg.Seed = o.seed
	cfg.IntraParallel = 2
	start := time.Now()
	res, err := cluster.Run(cfg)
	wall := time.Since(start).Seconds()
	out.Attempted++
	if err != nil {
		return fmt.Errorf("LP run of cell %s: %w", c.name, err)
	}
	if moved := movedGroups(digest(res), out.Digests[c.name]); len(moved) > 0 {
		out.fail("cell %s on the LP engine: %s differ from the sequential engine", c.name, strings.Join(moved, ", "))
	}
	seq := make([]float64, len(out.cellWalls))
	for r, walls := range out.cellWalls {
		seq[r] = walls[o.w.lpCell]
	}
	layer["sim.lp_epochs"] = float64(res.LP.Epochs)
	layer["sim.lp_mail"] = float64(res.LP.Mail)
	layer["sim.lp2_wall_ratio"] = wall / stats.MedianOf(seq)
	return nil
}
