package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// childOpts configures one child process: a cold start, an untimed warm-up
// rep, then timed reps; with trace set a traced rep follows each timed one.
type childOpts struct {
	w    workload
	size sizing // what w was built with; sizes the traced run's Table 1 cells
	seed uint64
	// Timed reps run until budget has passed, and at least minReps times.
	budget  time.Duration
	minReps int
	trace   bool
	// kernelShrink divides every kernel's op count; 1 outside the smoke tests.
	kernelShrink int
	// calibrate runs one calibration (calib.go) and returns how long it
	// took. A child process asks its driver to: the calibrator's heap must
	// not change how often the child's collector runs.
	calibrate func() (time.Duration, error)
	outDir    string    // where the trace file goes
	log       io.Writer // human-readable progress
}

// childResult is what a child reports to the driver.
type childResult struct {
	Host       hostInfo  `json:"host"`
	SetupS     float64   `json:"setup_s"`      // child start until the cold rep has ended, raw
	LiveHeapMB float64   `json:"live_heap_mb"` // largest live heap any cell of the cold rep held, see runCell
	PeakRSSMB  float64   `json:"peak_rss_mb"`  // VmHWM after the timed reps
	WallS      []float64 `json:"wall_s"`       // one per timed rep, raw
	CPUS       []float64 `json:"cpu_s"`
	Mallocs    uint64    `json:"mallocs"` // over the timed reps

	// Scale turns a timed rep's raw seconds into reference-host seconds:
	// calibNominal over the mean of the calibrations run just before and
	// just after the rep (calib.go). SetupScale does the same for SetupS
	// from the calibrations at child start and after the cold rep.
	Scale      []float64 `json:"scale"`
	SetupScale float64   `json:"setup_scale"`

	// Simulated results of one rep; every rep repeats them exactly.
	SimOps      uint64                       `json:"sim_ops"`
	SimNs       int64                        `json:"sim_ns"` // sum of the cells' measured windows
	SimP99Ns    int64                        `json:"sim_p99_ns"`
	PaperErrPct float64                      `json:"paper_err_pct"` // 0 unless the workload holds the Table 1 cells
	Digests     map[string]map[string]string `json:"digests"`       // cell -> field group -> digest

	// One operation is one cell run; it fails on an error, a panic, a wall
	// overrun, or a digest that differs from the first run of its cell.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`

	Layer map[string]float64 `json:"layer,omitempty"` // per-layer metrics, traced children only

	cellWalls [][]float64 // timed rep -> cell -> wall seconds
	cellOps   []uint64    // cell -> simulated ops
}

// check counts the rep's cell runs and fails those that errored or whose
// digest moved since the first run of the cell.
func (c *childResult) check(r rep) {
	for _, run := range r.cells {
		c.Attempted++
		if run.err != nil {
			c.fail("cell %s: %v", run.name, run.err)
			continue
		}
		d := digest(run.res)
		if ref, ok := c.Digests[run.name]; !ok {
			c.Digests[run.name] = d
		} else if moved := movedGroups(d, ref); len(moved) > 0 {
			c.fail("cell %s: %s moved between reps", run.name, strings.Join(moved, ", "))
		}
	}
}

// summarize checks the cold rep and keeps what it simulated; every later rep
// must repeat it exactly.
func (c *childResult) summarize(w workload, cold rep) {
	c.check(cold)
	var all stats.Histogram
	byName := map[string]*cluster.Result{}
	for i, run := range cold.cells {
		var ops uint64
		if run.res != nil {
			ops = run.res.Summary.Ops
			all.Merge(&run.res.ReadHist)
			all.Merge(&run.res.WriteHist)
			byName[run.name] = run.res
		}
		c.cellOps = append(c.cellOps, ops)
		c.SimOps += ops
		c.SimNs += w.cells[i].cfg.MeasureNs
	}
	c.SimP99Ns = all.Percentile(99)
	c.PaperErrPct, _ = paperErrPct(byName)
}

func (c *childResult) fail(format string, args ...any) {
	c.Failed++
	c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
}

// runChild is the body of a child process; started is when the process began.
func runChild(o childOpts, started time.Time) (childResult, error) {
	out := childResult{Host: readHost(), Digests: map[string]map[string]string{}}
	// The cold start is bracketed by calibrations like every rep; the wait
	// for the first one is not part of it.
	calStart := time.Now()
	before, err := o.calibrate()
	if err != nil {
		return out, err
	}
	started = started.Add(time.Since(calStart))

	// The cold rep: first cluster.New of every cell, pool growth, page
	// faults, and one forced collection per cell for live_heap_mb. Untimed,
	// but it is most of setup_s.
	out.summarize(o.w, runRep(o.w, o.seed, nil, &out.LiveHeapMB))
	out.SetupS = time.Since(started).Seconds()

	after, err := o.calibrate()
	if err != nil {
		return out, err
	}
	out.SetupScale = calibScale(before, after)
	before = after

	var tr traced
	deadline := time.Now().Add(o.budget)
	for len(out.WallS) < o.minReps || time.Now().Before(deadline) {
		r := runRep(o.w, o.seed, nil, nil)
		after, err := o.calibrate()
		if err != nil {
			return out, err
		}
		out.check(r)
		out.WallS = append(out.WallS, r.wallS)
		out.CPUS = append(out.CPUS, r.cpuS)
		out.Scale = append(out.Scale, calibScale(before, after))
		out.Mallocs += r.mallocs
		before = after
		walls := make([]float64, len(r.cells))
		for i, run := range r.cells {
			walls[i] = run.wall.Seconds()
		}
		out.cellWalls = append(out.cellWalls, walls)
		fmt.Fprintf(o.log, "rep %d: wall %.4f s, cpu %.4f s, calibration %.4f s\n",
			len(out.WallS), r.wallS, r.cpuS, after.Seconds())
		if o.trace {
			if err := tr.rep(o, &out); err != nil {
				return out, err
			}
			if before, err = o.calibrate(); err != nil {
				return out, err
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return out, err
	}
	out.PeakRSSMB = rss

	if o.trace {
		return out, tr.finish(o, &out)
	}
	return out, nil
}

// paperErrPct is the largest relative error of Table 1's normalised
// throughputs against the paper's 1.32 (<Lin,Ev>) and 4.08 (<Ev,Ev>), in
// percent; ok is false unless res holds the three Table 1 cells.
func paperErrPct(res map[string]*cluster.Result) (pct float64, ok bool) {
	base := res["t1.lin-sync"]
	if base == nil {
		return 0, false
	}
	for name, paper := range map[string]float64{"t1.lin-ev": 1.32, "t1.ev-ev": 4.08} {
		r := res[name]
		if r == nil {
			return 0, false
		}
		pct = math.Max(pct, 100*math.Abs(r.Throughput()/base.Throughput()-paper)/paper)
	}
	return pct, true
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest) // "<n> kB"
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
