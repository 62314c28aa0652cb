package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/recovery"
)

// CheckerRow is one model's verified consistency properties.
type CheckerRow struct {
	Model     core.Model
	Linear    *recovery.LinearReport
	StaleRate float64
}

// CheckerResult runs the linearizability checker over live histories of
// representative models — empirical verification that each consistency
// model provides exactly the guarantees the paper claims.
type CheckerResult struct {
	Rows []CheckerRow
}

// Checker verifies consistency guarantees from tracked histories.
func Checker(o Options) (*CheckerResult, error) {
	models := []core.Model{
		{C: core.Linearizable, P: core.Strict},
		{C: core.Linearizable, P: core.Synchronous},
		{C: core.Linearizable, P: core.Scope},
		{C: core.Linearizable, P: core.EventualP},
		{C: core.ReadEnforcedC, P: core.Synchronous},
		{C: core.Causal, P: core.Synchronous},
		{C: core.Causal, P: core.EventualP},
		{C: core.Eventual, P: core.Synchronous},
		{C: core.Eventual, P: core.EventualP},
	}
	// The checked history is the crash cell's: the run up to the crash
	// instant, which is all a checker reads.
	rows, err := runCells(o, onWorkloadA(o, models), crashed(func(m core.Model, rep *recovery.CrashReport) CheckerRow {
		lin := recovery.CheckLinearizable(rep.Result)
		rate := 0.0
		if lin.ReadsChecked > 0 {
			rate = float64(lin.StaleReadViolations) / float64(lin.ReadsChecked)
		}
		return CheckerRow{Model: m, Linear: lin, StaleRate: rate}
	}))
	if err != nil {
		return nil, err
	}
	return &CheckerResult{Rows: rows}, nil
}

// WriteText renders the verification table.
func (c *CheckerResult) WriteText(w io.Writer) {
	header(w, "Consistency verification: per-key register linearizability over live histories",
		"Linearizable rows must pass; Read-Enforced is 'slightly weaker' (tiny stale window); weak models fail.")
	fmt.Fprintf(w, "%-34s %8s %10s %10s %10s %10s\n",
		"Model", "linear?", "writes", "reads", "stale", "staleRate")
	for _, r := range c.Rows {
		fmt.Fprintf(w, "%-34s %8v %10d %10d %10d %9.2f%%\n",
			r.Model, r.Linear.Linearizable(), r.Linear.WritesChecked,
			r.Linear.ReadsChecked, r.Linear.StaleReadViolations, r.StaleRate*100)
	}
}
