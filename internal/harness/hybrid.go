package harness

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ycsb"
)

// HybridRow is one deployment configuration in the hybrid experiment.
type HybridRow struct {
	Label      string
	Result     *cluster.Result
	Normalized float64
}

// HybridResult reproduces Section 9's hybrid-deployment discussion:
// Linearizable within a local cluster with Eventual consistency across the
// system sits between flat-Linearizable and flat-Eventual.
type HybridResult struct {
	Rows []HybridRow
}

// Hybrid compares a flat Linearizable cluster, a two-group hybrid, and a
// flat Eventual cluster on a 6-node deployment.
func Hybrid(o Options) (*HybridResult, error) {
	o.Params.Servers = 6
	grouped := o
	grouped.Params.Groups = 2

	rows := []struct {
		label string
		o     Options
		m     core.Model
	}{
		{"flat <Linearizable, Synchronous>", o, core.Baseline},
		{"hybrid Lin-local/Eventual-global, Synchronous", grouped, core.Baseline},
		{"flat <Eventual, Synchronous>", o, core.Model{C: core.Eventual, P: core.Synchronous}},
	}
	cells := make([]cell, len(rows))
	for i, row := range rows {
		cells[i] = cell{row.o, row.m, ycsb.WorkloadA}
	}
	rs, err := runCells(o, cells, measured)
	if err != nil {
		return nil, err
	}

	res := &HybridResult{}
	base := rs[0].Throughput()
	for i, row := range rows {
		res.Rows = append(res.Rows, HybridRow{
			Label:      row.label,
			Result:     rs[i],
			Normalized: ratio(rs[i].Throughput(), base),
		})
	}
	return res, nil
}

// WriteText renders the comparison.
func (h *HybridResult) WriteText(w io.Writer) {
	header(w, "Hybrid consistency (Section 9): strong locally, eventual globally",
		"6 servers; the hybrid splits them into two 3-node Linearizable groups.")
	fmt.Fprintf(w, "%-48s %12s %10s %10s\n", "Deployment", "Mops/s", "norm", "rd-ns")
	for _, r := range h.Rows {
		fmt.Fprintf(w, "%-48s %12.2f %10.2f %10.0f\n",
			r.Label, r.Result.Throughput()/1e6, r.Normalized, r.Result.Summary.MeanRead)
	}
}
