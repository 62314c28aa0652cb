package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/recovery"
	"repro/internal/ycsb"
)

// AblationRow compares one design choice on/off for one model.
type AblationRow struct {
	Model    core.Model
	Name     string
	BaseTp   float64 // paper's design
	AblTp    float64 // ablated design
	BaseWrNs float64
	AblWrNs  float64
}

// AblationResult quantifies the design decisions DESIGN.md calls out:
// broadcast (vs. serial) propagation — the alternative Section 5 explicitly
// rejects — and per-key persist coalescing.
type AblationResult struct {
	Rows []AblationRow
}

// Ablations runs both ablations for a representative strict and a
// representative weak model.
func Ablations(o Options) (*AblationResult, error) {
	models := []core.Model{
		core.Baseline,
		{C: core.Causal, P: core.Synchronous},
	}
	serial := o
	serial.Params.SerialPropagation = true
	nocoal := o
	nocoal.Params.NoPersistCoalescing = true

	// Three cells per model: the paper's design, then each ablation.
	var cells []cell
	for _, m := range models {
		cells = append(cells, cell{o, m, ycsb.WorkloadA},
			cell{serial, m, ycsb.WorkloadA}, cell{nocoal, m, ycsb.WorkloadA})
	}
	rs, err := runCells(o, cells, measured)
	if err != nil {
		return nil, err
	}

	res := &AblationResult{}
	for i, m := range models {
		base, sr, nc := rs[3*i], rs[3*i+1], rs[3*i+2]
		res.Rows = append(res.Rows, AblationRow{
			Model: m, Name: "serial propagation",
			BaseTp: base.Throughput(), AblTp: sr.Throughput(),
			BaseWrNs: base.Summary.MeanWrite, AblWrNs: sr.Summary.MeanWrite,
		}, AblationRow{
			Model: m, Name: "no persist coalescing",
			BaseTp: base.Throughput(), AblTp: nc.Throughput(),
			BaseWrNs: base.Summary.MeanWrite, AblWrNs: nc.Summary.MeanWrite,
		})
	}
	return res, nil
}

// WriteText renders the ablation comparison.
func (a *AblationResult) WriteText(w io.Writer) {
	header(w, "Ablations: the design choices the paper's protocols depend on",
		"Section 5 rejects serially-visiting propagation; write-back coalescing bounds NVM pressure.")
	fmt.Fprintf(w, "%-30s %-24s %12s %12s %10s\n",
		"Model", "Ablation", "Tp(design)", "Tp(ablated)", "slowdown")
	for _, r := range a.Rows {
		fmt.Fprintf(w, "%-30s %-24s %10.2fM %10.2fM %9.2fx\n",
			r.Model, r.Name, r.BaseTp/1e6, r.AblTp/1e6, ratio(r.BaseTp, r.AblTp))
	}
}

// RecoveryResult reproduces Section 9's recovery-complexity observation as
// numbers: strict models reload consistent images; weak models pay an extra
// voting round over divergent ones. A row is a crash report; the table
// reads its Timing and DivergentKeys.
type RecoveryResult struct {
	Rows []*recovery.CrashReport
}

// RecoveryTimes crashes each model mid-run and models its recovery time.
func RecoveryTimes(o Options) (*RecoveryResult, error) {
	models := []core.Model{
		{C: core.Linearizable, P: core.Strict},
		core.Baseline,
		{C: core.Transactional, P: core.Synchronous},
		{C: core.ReadEnforcedC, P: core.Synchronous},
		{C: core.Causal, P: core.Synchronous},
		{C: core.Linearizable, P: core.Scope},
		{C: core.Causal, P: core.EventualP},
		{C: core.Eventual, P: core.EventualP},
	}
	rows, err := crashReports(o, models)
	if err != nil {
		return nil, err
	}
	return &RecoveryResult{Rows: rows}, nil
}

// WriteText renders the recovery-time table.
func (r *RecoveryResult) WriteText(w io.Writer) {
	header(w, "Recovery times after a full-cluster crash (Section 9)",
		"Strict models reload consistent NVM images; weaker models add a voting round.")
	fmt.Fprintf(w, "%-34s %10s %12s %12s %12s %10s\n",
		"Model", "voting?", "scan", "voting", "total", "divergent")
	for _, row := range r.Rows {
		t := row.Timing
		fmt.Fprintf(w, "%-34s %10v %10dns %10dns %10dns %10d\n",
			row.Model(), t.NeedsVoting, t.LocalScanNs, t.VotingNs, t.TotalNs, row.DivergentKeys)
	}
}
