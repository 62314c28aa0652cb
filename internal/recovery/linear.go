package recovery

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/protocol"
)

// LinearReport is the outcome of the per-key register linearizability check
// over a tracked history.
type LinearReport struct {
	WritesChecked int
	ReadsChecked  int

	// WriteOrderViolations: two writes to the same key whose real-time
	// order contradicts their version-stamp order (w1 completed before w2
	// began, yet w1's stamp is larger).
	WriteOrderViolations int
	// StaleReadViolations: a read returned a version older than some write
	// that had completed entirely before the read began.
	StaleReadViolations int
	// FutureReadViolations: a read returned a version whose write had not
	// even begun when the read completed.
	FutureReadViolations int
}

// Linearizable reports whether the history passed every check.
func (r LinearReport) Linearizable() bool {
	return r.WriteOrderViolations == 0 && r.StaleReadViolations == 0 && r.FutureReadViolations == 0
}

// StaleRate returns the fraction of checked reads that were stale.
func (r LinearReport) StaleRate() float64 {
	if r.ReadsChecked == 0 {
		return 0
	}
	return float64(r.StaleReadViolations) / float64(r.ReadsChecked)
}

// String summarizes the report.
func (r LinearReport) String() string {
	return fmt.Sprintf("linearizable=%v (writes=%d reads=%d, order=%d stale=%d future=%d)",
		r.Linearizable(), r.WritesChecked, r.ReadsChecked,
		r.WriteOrderViolations, r.StaleReadViolations, r.FutureReadViolations)
}

// CheckLinearizable verifies the necessary conditions for per-key atomic
// registers over a run's tracked history. Writes carry unique, totally
// ordered version stamps (last-writer-wins), which makes the check exact
// and linear-time per key instead of NP-hard:
//
//  1. stamp order must refine the real-time order of writes;
//  2. a read must not return a version older than the newest write that
//     completed before the read began;
//  3. a read must not return a version whose write began after the read
//     completed.
//
// Histories from Linearizable-consistency runs must pass; weaker models
// fail condition 2 by design (stale reads). Zero-stamp reads (key not yet
// written) are checked against condition 2 with "no version" as the value.
func CheckLinearizable(res *cluster.Result) LinearReport {
	rep := LinearReport{WritesChecked: len(res.Writes), ReadsChecked: len(res.Reads)}

	// Per key: the writes in ack order, the newest stamp of each prefix of
	// that order, and each stamp's issue time.
	type write struct {
		stamp      protocol.Stamp
		issue, ack int64
	}
	type keyIndex struct {
		writes   []write
		maxStamp []protocol.Stamp // maxStamp[i]: newest stamp of writes[:i+1]
		issueOf  map[protocol.Stamp]int64
	}
	// newestAckedBefore returns the newest stamp among the key's writes acked
	// before t (zero if none).
	newestAckedBefore := func(ki *keyIndex, t int64) protocol.Stamp {
		j := sort.Search(len(ki.writes), func(i int) bool { return ki.writes[i].ack >= t })
		if j == 0 {
			return 0
		}
		return ki.maxStamp[j-1]
	}
	idx := make(map[uint64]*keyIndex)
	for _, w := range res.Writes {
		ki := idx[w.Key]
		if ki == nil {
			ki = &keyIndex{}
			idx[w.Key] = ki
		}
		ki.writes = append(ki.writes, write{stamp: w.Stamp, issue: w.IssueAt, ack: w.AckAt})
	}
	for _, ki := range idx {
		slices.SortFunc(ki.writes, func(a, b write) int { return cmp.Compare(a.ack, b.ack) })
		ki.maxStamp = make([]protocol.Stamp, len(ki.writes))
		ki.issueOf = make(map[protocol.Stamp]int64, len(ki.writes))
		var running protocol.Stamp
		for i, w := range ki.writes {
			running = max(running, w.stamp)
			ki.maxStamp[i] = running
			ki.issueOf[w.stamp] = w.issue
		}
		// Condition 1: every write's stamp must dominate the stamps of all
		// writes acked before it began.
		for _, w := range ki.writes {
			if newestAckedBefore(ki, w.issue) > w.stamp {
				rep.WriteOrderViolations++
			}
		}
	}

	// Conditions 2 and 3, per read.
	for _, r := range res.Reads {
		ki := idx[r.Key]
		if ki == nil {
			continue // key only written outside the tracked history
		}
		// Condition 2: newest write completed before the read began.
		if newestAckedBefore(ki, r.IssueAt) > r.Stamp {
			rep.StaleReadViolations++
			continue
		}
		// Condition 3: the returned version's write must have begun before
		// the read completed. (Unknown stamps come from untracked warmup
		// writes — they began before tracking, so they pass.)
		if !r.Stamp.IsZero() {
			if issue, ok := ki.issueOf[r.Stamp]; ok && issue > r.DoneAt {
				rep.FutureReadViolations++
			}
		}
	}
	return rep
}
