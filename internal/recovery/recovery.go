// Package recovery implements crash injection and the post-crash audits
// that turn the paper's qualitative durability and programmer-intuition
// claims (Table 4, Section 6) into measured results.
//
// There is one crash path. CrashAndRecover runs a cluster to the crash
// instant, Crash wipes the volatile state of the crashed nodes (every node
// for a full-datacenter power failure), and Recover reconstructs a
// cluster-wide state from what remains: each node's NVM image — the
// persisted version of every key, which the protocol's persists advanced —
// plus the visible versions of the nodes that survived (the paper notes weak
// models need an advanced, voting-based recovery). The audits then compare
// the recovered state with the history of client-acknowledged operations;
// which of those writes the model promised durable is its
// core.Rules.AckDurability.
package recovery

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/protocol"
)

// Mode selects the recovery algorithm.
type Mode int

// Recovery modes.
const (
	// NewestVote adopts, per key, the newest version persisted on any node
	// (a voting-based recovery; the paper's weak models need one).
	NewestVote Mode = iota
	// MajorityVote adopts the newest version persisted on a majority of
	// nodes — it additionally survives losing a minority of NVM images.
	MajorityVote
)

func (m Mode) String() string {
	if m == MajorityVote {
		return "majority-vote"
	}
	return "newest-vote"
}

// RecoveredState is the cluster state reconstructed after a crash.
type RecoveredState struct {
	Mode     Mode
	Versions map[uint64]protocol.Stamp // per-key recovered stamp
}

// VersionOf returns the recovered stamp for key (zero if none).
func (s *RecoveredState) VersionOf(key uint64) protocol.Stamp { return s.Versions[key] }

// Keys returns how many keys were recovered.
func (s *RecoveredState) Keys() int { return len(s.Versions) }

// Crash wipes the volatile versions of nodes, leaving their NVM images; nil
// crashes every node (a full-datacenter power failure). A crashed cluster is
// not run further: it exists to be Recovered and audited.
func Crash(c *cluster.Cluster, nodes []int) {
	for i, r := range c.Replicas {
		if nodes == nil || slices.Contains(nodes, i) {
			r.LoseVolatile()
		}
	}
}

// Recover reconstructs cluster state after a crash. Each node offers, per
// key, the newer of its visible and persisted versions, and mode votes across
// the nodes' offers. A crashed node has no visible version left, so after a
// full crash only the NVM images vote — exactly what survives a power failure —
// while after a partial crash the survivors' volatile replicas join them
// (the Hermes-style remote-replica recovery the paper describes).
func Recover(c *cluster.Cluster, mode Mode) *RecoveredState {
	st := &RecoveredState{Mode: mode, Versions: make(map[uint64]protocol.Stamp)}
	quorum := len(c.Replicas)/2 + 1

	perKey := make(map[uint64][]protocol.Stamp)
	for _, r := range c.Replicas {
		r.Versions(func(key uint64, visible, persisted protocol.Stamp) {
			perKey[key] = append(perKey[key], max(visible, persisted))
		})
	}

	for key, stamps := range perKey {
		sort.Slice(stamps, func(i, j int) bool { return stamps[i] > stamps[j] })
		switch mode {
		case NewestVote:
			st.Versions[key] = stamps[0]
		case MajorityVote:
			if len(stamps) >= quorum {
				// The quorum-th newest stamp is offered (at least as new)
				// by a majority of nodes.
				st.Versions[key] = stamps[quorum-1]
			}
		}
	}
	return st
}

// Audit compares acknowledged operations against a recovered state.
type Audit struct {
	Mode Mode

	AckedWrites int
	// LostAcked counts client-acknowledged writes whose version (or any
	// newer one) did not survive: a subsequent read would be stale.
	LostAcked int
	// LostConfirmedDurable counts writes that the model *claimed* durable
	// (core.Rules.AckDurability: an acknowledgment that waited for every
	// persist, or a completed scope barrier) but that were lost anyway. It
	// must be zero for a correct protocol.
	LostConfirmedDurable int

	// MonotonicViolationsAcrossCrash counts keys where a pre-crash read
	// observed a newer version than what recovery produced — a post-crash
	// read would travel back in time (the monotonic-reads failure of
	// Table 4's weaker rows).
	MonotonicViolationsAcrossCrash int

	ReadsChecked int
}

// NonStaleReads reports whether every acknowledged write survived — the
// paper's non-stale-read guarantee.
func (a *Audit) NonStaleReads() bool { return a.LostAcked == 0 }

// MonotonicAcrossCrash reports whether no pre-crash read could be followed
// by an older post-crash read.
func (a *Audit) MonotonicAcrossCrash() bool { return a.MonotonicViolationsAcrossCrash == 0 }

// confirmedDurable reports whether the model promised the client this write
// was already durable when it was acknowledged (or when its barrier ran).
func confirmedDurable(m core.Model, w cluster.WriteRecord) bool {
	switch core.RulesOf(m).AckDurability {
	case core.DurableAtAck:
		return true
	case core.DurableAtScope:
		return w.ScopePersisted
	}
	return false
}

// RunAudit checks the recovered state against the run's history. The
// cluster must have been built with Config.TrackHistory.
func RunAudit(res *cluster.Result, rec *RecoveredState) *Audit {
	a := &Audit{Mode: rec.Mode}

	for _, w := range res.Writes {
		a.AckedWrites++
		recovered := rec.VersionOf(w.Key)
		if recovered < w.Stamp {
			a.LostAcked++
			if confirmedDurable(res.Config.Model, w) {
				a.LostConfirmedDurable++
			}
		}
	}

	// Monotonic-across-crash: the newest version each key was *read* at
	// must still be recoverable.
	lastRead := make(map[uint64]protocol.Stamp)
	for _, r := range res.Reads {
		a.ReadsChecked++
		if r.Stamp > lastRead[r.Key] {
			lastRead[r.Key] = r.Stamp
		}
	}
	for key, st := range lastRead {
		if rec.VersionOf(key) < st {
			a.MonotonicViolationsAcrossCrash++
		}
	}
	return a
}

// CrashReport bundles everything a crash experiment produces.
type CrashReport struct {
	Crashed   []int            // the crashed nodes, every node for a full crash
	Cluster   *cluster.Cluster // the crashed cluster (crashed nodes' volatile state wiped)
	Result    *cluster.Result
	Recovered *RecoveredState
	Audit     *Audit
	Live      MonotonicReport
}

// MonotonicReads reports the combined Table 4 monotonic-reads verdict:
// reads must not regress while the system runs, nor across a crash.
func (cr *CrashReport) MonotonicReads() bool {
	return cr.Live.Holds() && cr.Audit.MonotonicAcrossCrash()
}

// NonStaleReads reports the Table 4 non-stale-reads verdict.
func (cr *CrashReport) NonStaleReads() bool { return cr.Audit.NonStaleReads() }

// CrashAndRecover runs cfg until crashAtNs of simulated time, crashes nodes
// (nil: every node), recovers with mode, and audits acknowledged operations
// against what survived. A node outside [0, Servers), a repeated node or a
// negative crash time is an error.
func CrashAndRecover(cfg cluster.Config, crashAtNs int64, nodes []int, mode Mode) (*CrashReport, error) {
	if crashAtNs < 0 {
		return nil, fmt.Errorf("recovery: crash time must be >= 0, got %d", crashAtNs)
	}
	cfg.TrackHistory = true
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	n := len(c.Replicas)
	if nodes == nil {
		nodes = make([]int, n)
		for i := range nodes {
			nodes[i] = i
		}
	}
	for i, v := range nodes {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("recovery: crashed node %d outside [0, %d)", v, n)
		}
		if slices.Contains(nodes[:i], v) {
			return nil, fmt.Errorf("recovery: crashed node %d listed twice", v)
		}
	}
	res := c.RunTo(crashAtNs)
	Crash(c, nodes)
	rec := Recover(c, mode)
	return &CrashReport{
		Crashed:   nodes,
		Cluster:   c,
		Result:    res,
		Recovered: rec,
		Audit:     RunAudit(res, rec),
		Live:      CheckGlobalMonotonic(res),
	}, nil
}
