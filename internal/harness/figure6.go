package harness

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
)

// Fig6Metric identifies one of Figure 6's six plots.
type Fig6Metric int

// The six plots.
const (
	Fig6Throughput Fig6Metric = iota
	Fig6MeanRead
	Fig6MeanWrite
	Fig6MeanAll
	Fig6P95Read
	Fig6P95Write
)

func (m Fig6Metric) String() string {
	switch m {
	case Fig6Throughput:
		return "(a) Throughput"
	case Fig6MeanRead:
		return "(b) Mean Read Latency"
	case Fig6MeanWrite:
		return "(c) Mean Write Latency"
	case Fig6MeanAll:
		return "(d) Mean Latency"
	case Fig6P95Read:
		return "(e) 95th Percentile Read Latency"
	case Fig6P95Write:
		return "(f) 95th Percentile Write Latency"
	default:
		return "?"
	}
}

// Fig6Result holds all 25 model runs of the main performance comparison
// (YCSB workload-A), normalized to <Linearizable, Synchronous>.
type Fig6Result struct {
	Cells map[core.Model]*cluster.Result
	Base  *cluster.Result
}

// Figure6 runs the 5x5 matrix on YCSB-A, spreading the cells across cores.
// The baseline every value normalizes to is one of the 25 cells.
func Figure6(o Options) (*Fig6Result, error) {
	models := core.AllModels()
	rs, err := runCells(o, onWorkloadA(o, models), measured)
	if err != nil {
		return nil, fmt.Errorf("figure matrix: %w", err)
	}
	res := &Fig6Result{Cells: make(map[core.Model]*cluster.Result, len(models))}
	for i, m := range models {
		res.Cells[m] = rs[i]
	}
	res.Base = res.Cells[core.Baseline]
	return res, nil
}

// metric extracts a raw metric value from a run.
func fig6Metric(r *cluster.Result, m Fig6Metric) float64 {
	switch m {
	case Fig6Throughput:
		return r.Summary.Throughput
	case Fig6MeanRead:
		return r.Summary.MeanRead
	case Fig6MeanWrite:
		return r.Summary.MeanWrite
	case Fig6MeanAll:
		return r.Summary.MeanAll
	case Fig6P95Read:
		return float64(r.Summary.P95Read)
	case Fig6P95Write:
		return float64(r.Summary.P95Write)
	default:
		return 0
	}
}

// Normalized returns metric's value for model, normalized to the baseline.
func (f *Fig6Result) Normalized(m core.Model, metric Fig6Metric) float64 {
	r, ok := f.Cells[m]
	if !ok {
		return 0
	}
	return ratio(fig6Metric(r, metric), fig6Metric(f.Base, metric))
}

// WriteText renders all six plots as grouped-bar tables, one row per
// consistency model, one column per persistency model — the paper's layout.
func (f *Fig6Result) WriteText(w io.Writer) {
	header(w, "Figure 6: Performance of the 25 DDP models (YCSB workload-A)",
		"All values normalized to <Linearizable, Synchronous>.")
	for metric := Fig6Throughput; metric <= Fig6P95Write; metric++ {
		fmt.Fprintf(w, "\n%s\n", metric)
		fmt.Fprintf(w, "%-14s", "")
		for _, p := range core.Persistencies() {
			fmt.Fprintf(w, " %12s", p)
		}
		fmt.Fprintln(w)
		for _, c := range core.Consistencies() {
			fmt.Fprintf(w, "%-14s", c)
			for _, p := range core.Persistencies() {
				fmt.Fprintf(w, " %12.2f", f.Normalized(core.Model{C: c, P: p}, metric))
			}
			fmt.Fprintln(w)
		}
	}
}
