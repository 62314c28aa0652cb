package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// digestGroups are the field groups of cluster.Result a cell's digest covers,
// hashed separately so a mismatch names the group that moved. Events, the
// elision counters, Sched, LP and wall time stay out: simulator-speed work
// may legitimately move them.
var digestGroups = []string{"summary", "protocol", "net", "routing", "load"}

func digest(r *cluster.Result) map[string]string {
	return map[string]string{
		"summary":  hash("%+v", r.Summary),
		"protocol": hash("%+v %d", r.Protocol, r.BufferPeak),
		"net":      hash("%d %d", r.NetMessages, r.NetBytes),
		"routing":  hash("%d %v %v", r.Routed, r.ShardOps, r.NodeOps),
		"load":     hash("%d %d %d", r.Offered, r.Completed, r.InflightPeak),
	}
}

// hash returns the first 64 bits of the SHA-256 of the formatted fields.
func hash(format string, fields ...any) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf(format, fields...)))
	return hex.EncodeToString(sum[:8])
}

// movedGroups names the digest groups that differ between got and want.
func movedGroups(got, want map[string]string) []string {
	var moved []string
	for _, g := range digestGroups {
		if got[g] != want[g] {
			moved = append(moved, g)
		}
	}
	return moved
}

// cellRun is the outcome of one cell run, the benchmark's unit of
// "operation": it fails if it errors, panics or overruns its wall limit.
type cellRun struct {
	name string
	wall time.Duration
	res  *cluster.Result // nil when err is set
	err  error
}

// wallLimit is the longest a cell may take before it counts as failed: 20x
// the slowest cell's wall on the reference 2-core host (scale160's
// <Ev,Ev>, ~1.5 s).
const wallLimit = 30 * time.Second

// runCell drives one cell from outside through the exported cluster API,
// wrapping each call into a layer in a span. With liveHeapMB set it forces a
// collection while the cluster is fully built and has run, and raises
// *liveHeapMB to the heap that survives: what the cell needs, free of the
// collector's timing, which moves the resident set by 10-20% between
// identical processes.
func runCell(c cell, seed uint64, tr *tracer, liveHeapMB *float64) (run cellRun) {
	run.name = c.name
	defer func() {
		if p := recover(); p != nil {
			run.res, run.err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	cfg := c.cfg
	cfg.Seed = seed
	start := time.Now()
	var cl *cluster.Cluster
	tr.do("cluster.new_s", func() { cl, run.err = cluster.New(cfg) })
	if run.err != nil {
		return run
	}
	tr.do("cluster.start_s", cl.Start)
	tr.do("sim.run_warmup_s", func() { cl.Eng.Run(cfg.WarmupNs) })
	cl.BeginMeasurement()
	tr.do("sim.run_measure_s", func() { cl.Eng.Run(cfg.WarmupNs + cfg.MeasureNs) })
	cl.StopMeasurement()
	if liveHeapMB != nil {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		*liveHeapMB = max(*liveHeapMB, float64(ms.HeapAlloc)/(1<<20))
	}
	tr.do("cluster.collect_s", func() { run.res = cl.Collect(cfg.MeasureNs, 0) })
	run.wall = time.Since(start)
	if run.wall > wallLimit {
		run.res, run.err = nil, fmt.Errorf("took %.1fs, over the %s limit", run.wall.Seconds(), wallLimit)
	}
	return run
}

// rep is one pass over a workload's cell list, building every cluster
// afresh: users pay cluster.New on every run, so it is inside the wall.
type rep struct {
	wallS   float64
	cpuS    float64 // user+sys CPU of the process over the rep
	mallocs uint64
	cells   []cellRun
}

func runRep(w workload, seed uint64, tr *tracer, liveHeapMB *float64) rep {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	cpu := cpuSeconds()
	start := time.Now()

	r := rep{cells: make([]cellRun, 0, len(w.cells))}
	tr.do("rep", func() {
		for _, c := range w.cells {
			tr.beginCell(c.name)
			tr.do("cell", func() { r.cells = append(r.cells, runCell(c, seed, tr, liveHeapMB)) })
		}
		tr.endCell()
	})

	r.wallS = time.Since(start).Seconds()
	r.cpuS = cpuSeconds() - cpu
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - mallocs
	return r
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
