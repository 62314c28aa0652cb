// Command bench is the repo benchmark: four pinned simulation workloads
// driven from outside through the exported cluster API, end-to-end host-cost
// and simulated-result metrics, and a traced run with per-layer kernels,
// counters, spans and profile shares. See README.md.
//
// The driver never measures in its own process: it re-execs itself as one
// child at a time, so every child pays a cold start (that is setup_s) and
// the end-to-end numbers are medians over several process lifetimes.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

const (
	// runSeconds is BENCHMARK.json's run_seconds: how long one run spends
	// in timed reps, split evenly over its children.
	runSeconds = 15
	// coldStarts is how many children an end-to-end run starts: setup_s is
	// the median of their cold starts. A traced run starts one.
	coldStarts = 3
	// tracedReps is the least number of rep pairs (one untraced, one with
	// spans and the CPU profile on) a traced child runs: enough for a few
	// hundred 100 Hz samples.
	tracedReps = 3
)

func main() {
	started := time.Now()
	var (
		name         = flag.String("workload", "", "run one workload and end with the contract's JSON line (default: all four, both modes)")
		seed         = flag.Uint64("seed", 1, "cluster.Config.Seed of every cell")
		seconds      = flag.Float64("seconds", runSeconds, "seconds of timed reps per run")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: the traced run's per-layer metrics")
		dir          = flag.String("dir", "bench", "the benchmark's directory: golden/ is rewritten and out/ written under it")
		selfcheck    = flag.Bool("selfcheck", false, "run the suite twice and compare the two against the bounds")
		updateGolden = flag.Bool("update-golden", false, "rewrite golden/<workload>.json for the pinned seeds")
		describe     = flag.Bool("describe", false, "print BENCHMARK.json and exit")
		child        = flag.Bool("child", false, "internal: run as a measuring child of the driver")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	d := driver{seed: *seed, seconds: *seconds, dir: *dir}
	if !*child && !*describe {
		d.cal = newCalibrator()
	}

	var err error
	switch {
	case *describe:
		err = writeDescription(os.Stdout)
	case *child:
		err = childMain(*name, d, *trace == 1, started)
	case *updateGolden:
		err = d.updateGolden()
	case *selfcheck:
		err = d.selfcheck()
	case *name == "":
		_, err = d.suite()
	default:
		err = d.contractRun(*name, *trace == 1)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// errIncorrect makes the command exit non-zero after it has printed results
// that failed a check.
var errIncorrect = errors.New("outputs incorrect")

// childMain runs one child and writes its result as JSON on standard output;
// progress goes to standard error. For a calibration the child writes
// calibrateRequest on standard output and reads the nanoseconds it took from
// standard input; driver.spawn is the other end.
func childMain(name string, d driver, trace bool, started time.Time) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	stdin := bufio.NewReader(os.Stdin)
	o := childOpts{
		w: w, size: fullSize, seed: d.seed, budget: time.Duration(d.seconds * float64(time.Second)), minReps: 1,
		trace: trace, kernelShrink: 1,
		outDir: filepath.Join(d.dir, "out"), log: os.Stderr,
		calibrate: func() (time.Duration, error) {
			fmt.Println(calibrateRequest)
			line, err := stdin.ReadString('\n')
			if err != nil {
				return 0, fmt.Errorf("calibration reply: %w", err)
			}
			ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
			return time.Duration(ns), err
		},
	}
	if trace {
		o.minReps = tracedReps
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return err
		}
	}
	res, err := runChild(o, started)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

const calibrateRequest = "calibrate"

// driver runs workloads by starting children, one at a time: the reference
// host has 2 cores and a second measuring process would share them.
type driver struct {
	seed    uint64
	seconds float64
	dir     string
	cal     *calibrator
}

// spawn starts one child, runs a calibration each time the child asks for
// one (the child waits for the answer, so the two never compete), and returns
// the result the child ends with.
func (d driver) spawn(w workload, budget float64, trace bool) (childResult, error) {
	var res childResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(exe, "-child", "-workload", w.name, "-seed", strconv.FormatUint(d.seed, 10),
		"-seconds", strconv.FormatFloat(budget, 'g', -1, 64), "-trace", t, "-dir", d.dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return res, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return res, err
	}
	if err := cmd.Start(); err != nil {
		return res, err
	}
	var last []byte
	lines := bufio.NewScanner(stdout)
	lines.Buffer(nil, 1<<24) // the result is one long line
	for lines.Scan() {
		if lines.Text() != calibrateRequest {
			last = append(last[:0], lines.Bytes()...)
			continue
		}
		if _, err := fmt.Fprintln(stdin, d.cal.run().Nanoseconds()); err != nil {
			break // the child is gone; Wait reports why
		}
	}
	if err := cmd.Wait(); err != nil {
		return res, fmt.Errorf("child of %s: %w", w.name, err)
	}
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("child of %s: result: %w", w.name, err)
	}
	return res, nil
}

// outcome is one run of one workload in one mode.
type outcome struct {
	host      hostInfo
	defs      []metricDef // the mode's metrics, in print order
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
}

func (o outcome) correct() bool { return o.failed == 0 && len(o.failures) == 0 }

// run measures one workload: coldStarts children for the end-to-end metrics,
// or one traced child for the per-layer metrics. It prints every metric by
// name with its unit.
func (d driver) run(w workload, trace bool) (outcome, error) {
	n := coldStarts
	if trace {
		n = 1
	}
	children := make([]childResult, 0, n)
	for i := 0; i < n; i++ {
		c, err := d.spawn(w, d.seconds/coldStarts, trace)
		if err != nil {
			return outcome{}, err
		}
		children = append(children, c)
	}
	pins, err := loadGolden(w.name, d.seed)
	if err != nil {
		return outcome{}, err
	}
	out := collect(children, pins)
	fmt.Println(out.host)
	if out.host.busy() {
		fmt.Printf("warning: load average %.2f on %d processors; host-time numbers will be noisy\n",
			out.host.Load1, out.host.NProc)
	}
	if pins == nil {
		fmt.Printf("seed %d is not pinned: outputs checked for identity across reps and children only\n", d.seed)
	}
	if trace {
		out.defs, out.metrics = perLayer(), children[0].Layer
	} else {
		out.defs, out.metrics = endToEnd, endToEndValues(children, os.Stdout)
	}
	for _, def := range out.defs {
		v, ok := out.metrics[def.name]
		if !ok {
			out.failures = append(out.failures, "metric "+def.name+" was not produced")
			continue
		}
		fmt.Printf("%-20s %-36s %16.6f %-7s %s time\n", w.name, def.name, v, def.unit, def.clock)
	}
	for _, f := range out.failures {
		fmt.Printf("FAILED %s: %s\n", w.name, f)
	}
	fmt.Printf("%s: %d cell runs attempted, %d failed (failed_share %.4f)\n",
		w.name, out.attempted, out.failed, float64(out.failed)/float64(out.attempted))
	return out, nil
}

// collect merges the children's operation counts and checks that they
// simulated the same thing as each other and as the pins. Each named
// difference is one more failed operation.
func collect(children []childResult, pins *golden) outcome {
	out := outcome{host: children[0].Host}
	first := goldenOf(children[0])
	for i, c := range children {
		out.attempted += c.Attempted
		out.failed += c.Failed
		out.failures = append(out.failures, c.Failures...)
		if i > 0 {
			for _, diff := range diffGolden(c, first) {
				out.failed++
				out.failures = append(out.failures, fmt.Sprintf("child %d against child 1: %s", i+1, diff))
			}
		}
	}
	if pins != nil {
		diffs := diffGolden(children[0], pins)
		out.failed += len(diffs)
		out.failures = append(out.failures, diffs...)
	}
	out.failed = min(out.failed, out.attempted)
	return out
}

func simMops(c childResult) float64 { return float64(c.SimOps) / float64(c.SimNs) * 1e3 }

// endToEndValues reduces the children's timed reps to the end-to-end
// metrics, printing the detail behind each reduction. Host times are in
// reference-host seconds: each rep's raw time scaled by the calibrations
// around it (calib.go); the raw medians are printed beside them.
func endToEndValues(children []childResult, detail io.Writer) map[string]float64 {
	var walls, cpus, rawWalls, rawCPUs, setups, rawSetups, heaps []float64
	var mallocs uint64
	for _, c := range children {
		for i, scale := range c.Scale {
			walls = append(walls, c.WallS[i]*scale)
			cpus = append(cpus, c.CPUS[i]*scale)
		}
		rawWalls = append(rawWalls, c.WallS...)
		rawCPUs = append(rawCPUs, c.CPUS...)
		setups = append(setups, c.SetupS*c.SetupScale)
		rawSetups = append(rawSetups, c.SetupS)
		heaps = append(heaps, c.LiveHeapMB)
		mallocs += c.Mallocs
	}
	c := children[0]
	wall := stats.MedianOf(walls)
	fmt.Fprintf(detail, "wall_s: median of %d timed reps over %d cold starts, min %.4f max %.4f; raw median %.4f\n",
		len(walls), len(children), slices.Min(walls), slices.Max(walls), stats.MedianOf(rawWalls))
	fmt.Fprintf(detail, "cpu_s: median of %d timed reps, min %.4f max %.4f; raw median %.4f, raw min %.4f\n",
		len(cpus), slices.Min(cpus), slices.Max(cpus), stats.MedianOf(rawCPUs), slices.Min(rawCPUs))
	fmt.Fprintf(detail, "setup_s: median of %d cold starts, min %.4f max %.4f; raw median %.4f\n",
		len(setups), slices.Min(setups), slices.Max(setups), stats.MedianOf(rawSetups))
	return map[string]float64{
		"wall_s":            wall,
		"cpu_s":             stats.MedianOf(cpus),
		"sim_ops_per_s":     float64(c.SimOps) / wall,
		"setup_s":           stats.MedianOf(setups),
		"live_heap_mb":      stats.MedianOf(heaps),
		"allocs_per_sim_op": float64(mallocs) / float64(c.SimOps*uint64(len(walls))),
		"sim_mops":          simMops(c),
		"sim_p99_ns":        float64(c.SimP99Ns),
	}
}

// contractRun is one run as the builder's contract invokes it: one workload,
// one mode, and as the last line of standard output a JSON object with
// exactly the keys correct, attempted, failed and metrics.
func (d driver) contractRun(name string, trace bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	out, err := d.run(w, trace)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, def := range out.defs {
		if v, ok := out.metrics[def.name]; ok {
			metrics[def.name] = value{v, def.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.correct(), out.attempted, out.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.correct() {
		return errIncorrect
	}
	return nil
}
