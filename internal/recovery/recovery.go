// Package recovery implements crash injection and the post-crash audits
// that turn the paper's qualitative durability and programmer-intuition
// claims (Table 4, Section 6) into measured results.
//
// There is one crash path and one record. CrashAndRecover runs a cluster to
// the crash instant with its history tracked, and Recover reconstructs a
// cluster-wide state from what the crash leaves (every node crashed for a
// full-datacenter power failure): each node's NVM image (the persisted
// version of every key, which the protocol's persists advanced) plus the
// visible versions of the nodes that survived. A crash reads state; it wipes
// nothing. Per key Recover adopts the newest version any node offers, the
// voting-based recovery the paper notes weak models need.
//
// CrashAndRecover returns one flat CrashReport: the audit of the
// client-acknowledged writes and completed reads against the recovered state
// (which writes the model promised durable is its core.Rules.AckDurability),
// the live monotonic-read check, the register linearizability check, the NVM
// images' divergence and the modeled recovery time. Every crash experiment,
// Table 4's measured columns and the ddp facade render fields of that one
// report.
package recovery

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/protocol"
)

// RecoveredState is the cluster state reconstructed after a crash.
type RecoveredState struct {
	Versions map[uint64]protocol.Stamp // per-key recovered stamp
}

// VersionOf returns the recovered stamp for key (zero if none).
func (s *RecoveredState) VersionOf(key uint64) protocol.Stamp { return s.Versions[key] }

// Keys returns how many keys were recovered.
func (s *RecoveredState) Keys() int { return len(s.Versions) }

// Recover reconstructs cluster state after the nodes in crashed failed. A
// crashed node offers only its NVM image, the persisted version of each key;
// a survivor offers, per key, the newer of its visible and persisted
// versions. The newest offer wins. After a full crash only the NVM images
// vote — exactly what survives a power failure — while after a partial crash
// the survivors' volatile replicas join them (the Hermes-style
// remote-replica recovery the paper describes). Recover changes no replica.
func Recover(c *cluster.Cluster, crashed []int) *RecoveredState {
	st := &RecoveredState{Versions: make(map[uint64]protocol.Stamp)}
	for i, r := range c.Replicas {
		down := slices.Contains(crashed, i)
		r.Versions(func(key uint64, visible, persisted protocol.Stamp) {
			v := persisted
			if !down {
				v = max(visible, persisted)
			}
			if v > st.Versions[key] {
				st.Versions[key] = v
			}
		})
	}
	return st
}

// CrashReport is everything one crash run measures. Every crash and history
// verdict the repo prints is one of its fields or a method over them.
type CrashReport struct {
	Crashed []int // the crashed nodes, every node for a full crash
	// Result is the run up to the crash instant. Its Writes and Reads are
	// dropped once audited: the counts below are what they held.
	Result    *cluster.Result
	Recovered *RecoveredState

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
	ReadsChecked                   int

	// DivergentKeys counts keys whose persisted stamp differs across nodes
	// at the crash — the reconciliation work voting recovery exists for.
	DivergentKeys int

	Live   MonotonicReport // reads regressing while the system ran
	Linear LinearReport    // per-key register linearizability of the history
	Timing RecoveryTiming  // the modeled recovery time
}

// Model returns the crashed run's model.
func (cr *CrashReport) Model() core.Model { return cr.Result.Config.Model }

// LostRate returns the fraction of acknowledged writes lost.
func (cr *CrashReport) LostRate() float64 {
	if cr.AckedWrites == 0 {
		return 0
	}
	return float64(cr.LostAcked) / float64(cr.AckedWrites)
}

// NonStaleReads reports the Table 4 non-stale-reads verdict: every
// acknowledged write survived.
func (cr *CrashReport) NonStaleReads() bool { return cr.LostAcked == 0 }

// MonotonicReads reports the combined Table 4 monotonic-reads verdict:
// reads must not regress while the system runs, nor across a crash.
func (cr *CrashReport) MonotonicReads() bool {
	return cr.Live.Holds() && cr.MonotonicViolationsAcrossCrash == 0
}

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

// CrashAndRecover runs cfg with its history tracked until crashAtNs of
// simulated time, crashes nodes (nil: every node), recovers, and reports
// every verdict over what survived and over the history. A configuration
// error comes first; then a node outside [0, Servers), a repeated node or a
// negative crash time is an error.
func CrashAndRecover(cfg cluster.Config, crashAtNs int64, nodes []int) (*CrashReport, error) {
	cfg.TrackHistory = true
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if crashAtNs < 0 {
		return nil, fmt.Errorf("recovery: crash time must be >= 0, got %d", crashAtNs)
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
	rec := Recover(c, nodes)
	cr := &CrashReport{
		Crashed:       nodes,
		Result:        res,
		Recovered:     rec,
		AckedWrites:   len(res.Writes),
		ReadsChecked:  len(res.Reads),
		DivergentKeys: imageDivergence(c),
		Live:          CheckGlobalMonotonic(res),
		Linear:        CheckLinearizable(res),
		Timing:        TimeRecovery(c.Cfg.Model, c.Cfg.Params, rec.Keys()),
	}
	for _, w := range res.Writes {
		if rec.VersionOf(w.Key) < w.Stamp {
			cr.LostAcked++
			if confirmedDurable(c.Cfg.Model, w) {
				cr.LostConfirmedDurable++
			}
		}
	}
	// Monotonic-across-crash: the newest version each key was *read* at
	// must still be recoverable.
	lastRead := make(map[uint64]protocol.Stamp)
	for _, r := range res.Reads {
		lastRead[r.Key] = max(lastRead[r.Key], r.Stamp)
	}
	for key, st := range lastRead {
		if rec.VersionOf(key) < st {
			cr.MonotonicViolationsAcrossCrash++
		}
	}
	res.Writes, res.Reads = nil, nil
	return cr, nil
}
