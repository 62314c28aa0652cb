package harness

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/recovery"
)

// PaperStatsResult reproduces the scattered quantitative claims of
// Section 8.1.2.
type PaperStatsResult struct {
	// <Eventual, Eventual> vs <Linearizable, Synchronous> throughput
	// (paper: 3.3x).
	EvEvSpeedup float64

	// Fraction of reads conflicting with a yet-to-persist write under
	// <Read-Enforced, Read-Enforced> (paper: >30% with 100 clients).
	REREReadConflictRate float64

	// Causal write-buffering: mean buffered updates under Synchronous vs
	// Eventual persistency (paper: 1-2 orders of magnitude apart).
	CausalSyncBufferMean     float64
	CausalEventualBufferMean float64
	CausalSyncBufferPeak     int
	CausalEventualBufferPeak int

	// Transaction conflict fraction under <Transactional, Synchronous>
	// (paper: ~30% of transactions conflict at 100 clients).
	XactConflictRate float64
}

// BufferRatio returns the Synchronous/Eventual buffering ratio.
func (s *PaperStatsResult) BufferRatio() float64 {
	return ratio(float64(s.CausalSyncBufferPeak), float64(max(1, s.CausalEventualBufferPeak)))
}

// PaperStats measures Section 8.1.2's headline numbers.
func PaperStats(o Options) (*PaperStatsResult, error) {
	models := []core.Model{
		core.Baseline,
		{C: core.Eventual, P: core.EventualP},
		{C: core.ReadEnforcedC, P: core.ReadEnforcedP},
		{C: core.Causal, P: core.Synchronous},
		{C: core.Causal, P: core.EventualP},
		{C: core.Transactional, P: core.Synchronous},
	}
	rs, err := runCells(o, onWorkloadA(o, models), measured)
	if err != nil {
		return nil, err
	}
	base, evev, rere, csync, cev, xact := rs[0], rs[1], rs[2], rs[3], rs[4], rs[5]

	return &PaperStatsResult{
		EvEvSpeedup:              ratio(evev.Throughput(), base.Throughput()),
		REREReadConflictRate:     rere.Protocol.ReadConflictRate(),
		CausalSyncBufferMean:     csync.Protocol.MeanBuffered(),
		CausalEventualBufferMean: cev.Protocol.MeanBuffered(),
		CausalSyncBufferPeak:     csync.Protocol.BufferPeak,
		CausalEventualBufferPeak: cev.Protocol.BufferPeak,
		XactConflictRate:         xact.Protocol.TxnConflictRate(),
	}, nil
}

// WriteText renders the Section 8.1.2 observations.
func (s *PaperStatsResult) WriteText(w io.Writer) {
	header(w, "Section 8.1.2: headline statistics", "")
	fmt.Fprintf(w, "<Eventual, Eventual> vs <Linearizable, Synchronous> throughput: %.2fx (paper: 3.3x)\n", s.EvEvSpeedup)
	fmt.Fprintf(w, "<Read-Enforced, Read-Enforced> reads conflicting with unpersisted writes: %.1f%% (paper: >30%%)\n",
		s.REREReadConflictRate*100)
	fmt.Fprintf(w, "Causal buffering, peak:  Synchronous=%d  Eventual=%d  ratio=%.1fx (paper: 1-2 orders of magnitude)\n",
		s.CausalSyncBufferPeak, s.CausalEventualBufferPeak, s.BufferRatio())
	fmt.Fprintf(w, "Causal buffering, mean at insert: Synchronous=%.2f Eventual=%.2f\n",
		s.CausalSyncBufferMean, s.CausalEventualBufferMean)
	fmt.Fprintf(w, "<Transactional, Synchronous> conflict rate: %.1f%% (paper: ~30%%)\n", s.XactConflictRate*100)
}

// WriteTable5 prints the modeled architecture parameters (Table 5).
func WriteTable5(w io.Writer, p params.Params) {
	header(w, "Table 5: Architectural parameters", "")
	fmt.Fprintf(w, "Servers; Clients       : %d servers; %d clients per server\n", p.Servers, p.ClientsPerServer)
	fmt.Fprintf(w, "Multicore chip         : %d worker cores\n", p.WorkersPerServer)
	fmt.Fprintf(w, "L1 cache               : %d ns round trip\n", p.L1Latency)
	fmt.Fprintf(w, "L2 cache               : %d ns round trip\n", p.L2Latency)
	fmt.Fprintf(w, "LLC cache              : %d ns round trip (DDIO for NIC fills)\n", p.LLCLatency)
	fmt.Fprintf(w, "Network latency        : %d ns round trip NIC-to-NIC\n", p.NetRoundTrip)
	fmt.Fprintf(w, "Network bandwidth      : %d Gb/s\n", p.NetBandwidth/1_000_000_000)
	fmt.Fprintf(w, "Queue pairs            : up to %d\n", p.QueuePairs)
	// memhier models DRAM as one latency; the channel and bank geometry is
	// the paper's, printed as text.
	fmt.Fprintf(w, "DRAM                   : 4 channels x 8 banks, %d ns\n", p.DRAMLatency)
	fmt.Fprintf(w, "NVM                    : %d channels x %d banks, %d ns read, %d ns write\n",
		p.NVMChannels, p.NVMBanks, p.NVMReadLat, p.NVMWriteLat)
	fmt.Fprintf(w, "Keys; value size       : %d keys; %d B (zipfian theta %.2f)\n", p.Keys, p.ValueSize, p.ZipfTheta)
	fmt.Fprintf(w, "Transaction; scope size: %d; %d client requests\n", p.XactionSize, p.ScopeSize)
}

// DurabilityResult audits every model's crash behaviour: one crash report
// per binding, in core.AllModels order.
type DurabilityResult struct {
	Rows []*recovery.CrashReport
}

// DurabilityAudit crashes every one of the 25 models mid-run and reports
// what survived (Section 3's data-loss motivation, measured).
func DurabilityAudit(o Options) (*DurabilityResult, error) {
	rows, err := crashReports(o, core.AllModels())
	if err != nil {
		return nil, err
	}
	return &DurabilityResult{Rows: rows}, nil
}

// WriteText renders the audit.
func (d *DurabilityResult) WriteText(w io.Writer) {
	header(w, "Durability audit: full-cluster crash mid-run, newest-vote recovery",
		"LostAcked = client-acknowledged writes not recoverable from any NVM image.")
	fmt.Fprintf(w, "%-34s %10s %10s %9s %10s %6s %6s\n",
		"Model", "Acked", "Lost", "LostRate", "RecKeys", "Mono", "NStale")
	for _, r := range d.Rows {
		fmt.Fprintf(w, "%-34s %10d %10d %8.2f%% %10d %6s %6s\n",
			r.Model(), r.AckedWrites, r.LostAcked, r.LostRate()*100, r.Recovered.Keys(),
			yn(r.MonotonicReads()), yn(r.NonStaleReads()))
	}
}
