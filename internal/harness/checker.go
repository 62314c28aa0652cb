package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/recovery"
)

// CheckerResult runs the linearizability checker over live histories of
// representative models — empirical verification that each consistency
// model provides exactly the guarantees the paper claims. A row is a crash
// report: the checked history is the crash cell's run up to the crash
// instant, and a row reads its LinearReport.
type CheckerResult struct {
	Rows []*recovery.CrashReport
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
	rows, err := crashReports(o, models)
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
			r.Model(), r.Linear.Linearizable(), r.Linear.WritesChecked,
			r.Linear.ReadsChecked, r.Linear.StaleReadViolations, r.Linear.StaleRate()*100)
	}
}
