package harness

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ycsb"
)

// sweepModels is the model subset shown in the sensitivity figures:
// Linearizable and Causal consistency with every persistency model.
func sweepModels() []core.Model {
	var out []core.Model
	for _, c := range []core.Consistency{core.Linearizable, core.Causal} {
		for _, p := range core.Persistencies() {
			out = append(out, core.Model{C: c, P: p})
		}
	}
	return out
}

// SweepResult is one sensitivity analysis: for each swept configuration, a
// full model matrix, all normalized to <Linearizable, Synchronous> at the
// default configuration.
type SweepResult struct {
	Title  string
	Note   string
	Labels []string
	Points []map[core.Model]*cluster.Result
	BaseTp float64 // throughput of <Lin, Sync> at the default point
	Extra  []string
}

// Normalized returns a model's throughput at point i, normalized to the
// default-point baseline.
func (s *SweepResult) Normalized(i int, m core.Model) float64 {
	r, ok := s.Points[i][m]
	if !ok {
		return 0
	}
	return ratio(r.Throughput(), s.BaseTp)
}

// WriteText renders the sweep as one table block per swept point.
func (s *SweepResult) WriteText(w io.Writer) {
	header(w, s.Title, s.Note)
	for i, label := range s.Labels {
		fmt.Fprintf(w, "\n[%s]\n%-14s", label, "")
		for _, p := range core.Persistencies() {
			fmt.Fprintf(w, " %12s", p)
		}
		fmt.Fprintln(w)
		for _, c := range []core.Consistency{core.Linearizable, core.Causal} {
			fmt.Fprintf(w, "%-14s", c)
			for _, p := range core.Persistencies() {
				fmt.Fprintf(w, " %12.2f", s.Normalized(i, core.Model{C: c, P: p}))
			}
			fmt.Fprintln(w)
		}
	}
	for _, line := range s.Extra {
		fmt.Fprintf(w, "%s\n", line)
	}
}

// sweepPoint is one swept configuration: an option variant plus the
// workload it runs.
type sweepPoint struct {
	o Options
	w ycsb.Workload
}

// sweepGrid runs the sensitivity model subset over every swept point as one
// flat cell grid, so all points' cells share the worker pool.
func sweepGrid(parent Options, title, note string, labels []string, points []sweepPoint, baseIdx int) (*SweepResult, error) {
	models := sweepModels()
	cells := make([]cell, 0, len(points)*len(models))
	for _, pt := range points {
		for _, m := range models {
			cells = append(cells, cell{pt.o, m, pt.w})
		}
	}
	rs, err := runCells(parent, cells, measured)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", title, err)
	}
	res := &SweepResult{Title: title, Note: note, Labels: labels}
	for i := range points {
		point := make(map[core.Model]*cluster.Result, len(models))
		for j, m := range models {
			point[m] = rs[i*len(models)+j]
		}
		res.Points = append(res.Points, point)
	}
	res.BaseTp = res.Points[baseIdx][core.Baseline].Throughput()
	return res, nil
}

// Figure7 sweeps the client count: 10, 100 (default), 150 — the paper finds
// <Lin, Sync> gains ~2.2x going from 100 to 10 clients while Causal with
// Synchronous/Eventual persistency barely moves; Transactional conflicts
// roughly halve from 100 to 10 clients.
func Figure7(o Options) (*SweepResult, error) {
	counts := []int{10, 100, 150}
	var labels []string
	var points []sweepPoint
	for _, n := range counts {
		oo := o
		oo.Params.ClientsPerServer = max(1, n/oo.Params.Servers)
		// Client threads pipeline requests (Odyssey-style): the sweep's
		// point is how *threads* scale, with each thread keeping a window
		// of requests outstanding.
		oo.Params.ClientWindow = 16
		labels = append(labels, fmt.Sprintf("%d-clients", n))
		points = append(points, sweepPoint{oo, ycsb.WorkloadA})
	}
	res, err := sweepGrid(o, "Figure 7: Sensitivity to the number of clients",
		"Throughput normalized to <Linearizable, Synchronous> at 100 clients.",
		labels, points, 1)
	if err != nil {
		return nil, err
	}

	// The accompanying Transactional-conflict observation.
	xact := core.Model{C: core.Transactional, P: core.Synchronous}
	xr, err := runCells(o, []cell{
		{points[0].o, xact, ycsb.WorkloadA},
		{points[1].o, xact, ycsb.WorkloadA},
	}, measured)
	if err != nil {
		return nil, err
	}
	res.Extra = append(res.Extra, fmt.Sprintf(
		"Transactional conflict rate: %.1f%% at 10 clients vs %.1f%% at 100 clients (paper: ~halves at 10)",
		xr[0].Protocol.TxnConflictRate()*100, xr[1].Protocol.TxnConflictRate()*100))
	return res, nil
}

// Figure8 sweeps the NIC-to-NIC round trip: 0.5, 1 (default), 2 us. The
// paper finds Linearizable models lose ~12% at 2 us while Causal is barely
// affected.
func Figure8(o Options) (*SweepResult, error) {
	rts := []int64{500, 1000, 2000}
	var labels []string
	var points []sweepPoint
	for _, rt := range rts {
		oo := o
		oo.Params.NetRoundTrip = rt
		labels = append(labels, fmt.Sprintf("%.1fus", float64(rt)/1000))
		points = append(points, sweepPoint{oo, ycsb.WorkloadA})
	}
	return sweepGrid(o, "Figure 8: Sensitivity to NIC-to-NIC round-trip latency",
		"Throughput normalized to <Linearizable, Synchronous> at 1us.",
		labels, points, 1)
}

// Figure9 sweeps the read/write mix: workload-B (95% reads), workload-A
// (50/50), workload-W (95% writes). Read-heavy workloads are less affected
// by the models.
func Figure9(o Options) (*SweepResult, error) {
	wls := []ycsb.Workload{ycsb.WorkloadB, ycsb.WorkloadA, ycsb.WorkloadW}
	var labels []string
	var points []sweepPoint
	for _, wl := range wls {
		labels = append(labels, wl.Name)
		points = append(points, sweepPoint{o, wl})
	}
	return sweepGrid(o, "Figure 9: Sensitivity to the read/write mix",
		"Throughput normalized to <Linearizable, Synchronous> on workload-A.",
		labels, points, 1)
}
