package recovery

import (
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
// run's read log, visiting the reads in completion order (ties in log order;
// see byDoneAt).
func CheckGlobalMonotonic(res *cluster.Result) MonotonicReport {
	newest := make(map[uint64]protocol.Stamp)
	rep := MonotonicReport{}
	byDoneAt(res.Reads, func(r *cluster.ReadRecord) {
		rep.ReadsChecked++
		if r.Stamp < newest[r.Key] {
			rep.Violations++
			return
		}
		if r.Stamp > newest[r.Key] {
			newest[r.Key] = r.Stamp
		}
	})
	return rep
}

// byDoneAt calls fn on every read of log in the order a stable sort by DoneAt
// gives, without sorting: Collect concatenates one completion-ordered log per
// node, so log is a few nondecreasing runs, and a k-way merge of them —
// equal DoneAt going to the earlier run — visits them in that order in
// O(n log runs), copying no record.
func byDoneAt(log []cluster.ReadRecord, fn func(*cluster.ReadRecord)) {
	// runs is a binary min-heap of run cursors, ordered by the DoneAt of
	// each run's next read and then by the run's place in log.
	type run struct{ next, end int }
	var runs []run
	for i := 0; i < len(log); {
		j := i + 1
		for j < len(log) && log[j].DoneAt >= log[j-1].DoneAt {
			j++
		}
		runs = append(runs, run{i, j})
		i = j
	}
	less := func(a, b run) bool {
		if da, db := log[a.next].DoneAt, log[b.next].DoneAt; da != db {
			return da < db
		}
		return a.next < b.next
	}
	down := func(i int) {
		for {
			m := i
			for _, c := range [2]int{2*i + 1, 2*i + 2} {
				if c < len(runs) && less(runs[c], runs[m]) {
					m = c
				}
			}
			if m == i {
				return
			}
			runs[i], runs[m] = runs[m], runs[i]
			i = m
		}
	}
	for i := len(runs)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(runs) > 0 {
		fn(&log[runs[0].next])
		if runs[0].next++; runs[0].next == runs[0].end {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		down(0)
	}
}
