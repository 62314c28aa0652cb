package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/recovery"
)

// Table4Row pairs the paper's qualitative ratings with this
// implementation's measured evidence: a crash report and the normalized
// throughput.
type Table4Row struct {
	Traits         core.Traits
	Crash          *recovery.CrashReport
	ThroughputNorm float64
}

// Table4Result reproduces the trade-off comparison.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 runs a crash experiment per rated model and compares measured
// monotonic/non-stale verdicts against the paper's columns.
func Table4(o Options) (*Table4Result, error) {
	traits := core.Table4()
	models := make([]core.Model, len(traits))
	for i, tr := range traits {
		models[i] = tr.Model
	}

	// Performance cells: the normalization baseline plus one run per rated
	// model, scheduled as one grid.
	rs, err := runCells(o, onWorkloadA(o, append([]core.Model{core.Baseline}, models...)), measured)
	if err != nil {
		return nil, err
	}

	crashes, err := crashReports(o, models)
	if err != nil {
		return nil, err
	}
	rows := make([]Table4Row, len(traits))
	for i, tr := range traits {
		rows[i] = Table4Row{Traits: tr, Crash: crashes[i], ThroughputNorm: ratio(rs[i+1].Throughput(), rs[0].Throughput())}
	}
	return &Table4Result{Rows: rows}, nil
}

func yn(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// WriteText renders the paper ratings plus the measured columns.
func (t *Table4Result) WriteText(w io.Writer) {
	header(w, "Table 4: DDP model trade-offs (paper ratings + measured evidence)",
		"Measured columns come from a mid-run full-cluster crash with newest-vote recovery.")
	fmt.Fprintf(w, "%-32s %-6s %-6s %-6s | %-9s %-9s | %-9s %-9s | %-8s %s\n",
		"Model", "Dur.", "Perf.", "Intu.", "PaperMono", "PaperNSt", "MeasMono", "MeasNSt", "TpNorm", "LostAcked")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-32s %-6s %-6s %-6s | %-9s %-9s | %-9s %-9s | %-8.2f %d/%d\n",
			r.Traits.Model.String(),
			r.Traits.Durability.Arrow(), r.Traits.Performance.Arrow(), r.Traits.Intuition.Arrow(),
			yn(r.Traits.MonotonicReads), yn(r.Traits.NonStaleReads),
			yn(r.Crash.MonotonicReads()), yn(r.Crash.NonStaleReads()),
			r.ThroughputNorm, r.Crash.LostAcked, r.Crash.AckedWrites)
	}
}
