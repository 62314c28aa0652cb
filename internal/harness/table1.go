package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/ycsb"
)

// Table1Row is one of the motivation experiment's three environments.
type Table1Row struct {
	VolatileInCritPath bool
	NVMInCritPath      bool
	Model              core.Model
	Throughput         float64
	Normalized         float64
}

// Table1Result reproduces Section 3's motivation experiment: a 3-node
// cluster running client write requests under three strictness
// environments. The paper measured 1 / 1.32 / 4.08.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs the motivation experiment.
func Table1(o Options) (*Table1Result, error) {
	o.Params.Servers = 3
	// The paper's motivation experiment ran moderate client load on a
	// 3-node Odyssey cluster; 8 client threads per node reproduces its
	// operating point (NVM well below saturation).
	if o.Params.ClientsPerServer > 8 {
		o.Params.ClientsPerServer = 8
	}
	writeOnly := ycsb.Workload{Name: "write-only", ReadRatio: 0}

	envs := []struct {
		vol, nvm bool
		m        core.Model
	}{
		// Both volatile updates and NVM persists complete before the client
		// write returns.
		{true, true, core.Model{C: core.Linearizable, P: core.Synchronous}},
		// Volatile replicas still update in the critical path; persists are
		// lazy.
		{true, false, core.Model{C: core.Linearizable, P: core.EventualP}},
		// Neither: the write returns locally, everything else is lazy.
		{false, false, core.Model{C: core.Eventual, P: core.EventualP}},
	}

	cells := make([]cell, len(envs))
	for i, env := range envs {
		cells[i] = cell{o, env.m, writeOnly}
	}
	rs, err := runCells(o, cells, measured)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{}
	base := rs[0].Throughput()
	for i, env := range envs {
		tp := rs[i].Throughput()
		res.Rows = append(res.Rows, Table1Row{
			VolatileInCritPath: env.vol,
			NVMInCritPath:      env.nvm,
			Model:              env.m,
			Throughput:         tp,
			Normalized:         ratio(tp, base),
		})
	}
	return res, nil
}

// WriteText renders the paper's Table 1 layout.
func (t *Table1Result) WriteText(w io.Writer) {
	header(w, "Table 1: Relative throughput of three environments",
		"(paper: 1 / 1.32 / 4.08 — 3-node cluster, write requests)")
	fmt.Fprintf(w, "%-18s | %-14s | %-10s | %s\n",
		"Volatile Updates", "NVM Updates", "Normalized", "Model used")
	fmt.Fprintf(w, "%-18s | %-14s | %-10s |\n", "in Critical Path?", "in Critical Path?", "Throughput")
	for _, r := range t.Rows {
		yn := func(b bool) string {
			if b {
				return "Yes"
			}
			return "No"
		}
		fmt.Fprintf(w, "%-18s | %-14s | %-10.2f | %s\n",
			yn(r.VolatileInCritPath), yn(r.NVMInCritPath), r.Normalized, r.Model)
	}
}
