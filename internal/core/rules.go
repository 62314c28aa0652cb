package core

// Rules is one binding's row of protocol rules: every fact the code asks
// about a <consistency, persistency> binding, stated once from Table 2.
// internal/protocol's replicas resolve their row at construction and branch
// on it; Describe renders it; the cluster, the harness and the crash audit
// read it. The persistency side is only this row: where a persist is
// scheduled (Persist) and what it gates (PersistsBeforeVisible,
// PersistsInAckPath, SplitAcks).
type Rules struct {
	// InvAckVal: writes run the INV/ACK/VAL broadcast (Linearizable,
	// Read-Enforced, Transactional) rather than lazy UPD propagation
	// (Causal, Eventual).
	InvAckVal bool

	// CausalOrder: a UPD carries its write's cauhist, followers apply it
	// through the reorder buffer once its history is applied, and the
	// coordinator advances its applied vector for each of its own writes
	// (Causal; Figure 2f). Without it a UPD applies last-writer-wins.
	CausalOrder bool

	// ReadsStallOnTransient: a read of a key stalls while a write to it is
	// not yet validated (Linearizable, Read-Enforced).
	ReadsStallOnTransient bool

	// EarlyAck: a strong write acknowledges the client as soon as the local
	// update and the INV broadcast are out (Read-Enforced and Transactional;
	// Figures 3 and 4), unless Strict persistency vetoes it.
	EarlyAck bool

	// ServesCommitted: reads serve the latest transactionally committed
	// version, not the visible one (Transactional; Section 2.1).
	ServesCommitted bool

	// SplitAcks: followers acknowledge consistency (ACK_c) and persistency
	// (ACK_p) separately, and a strong write stays persistency-transient
	// until VAL_p (Read-Enforced persistency; Figure 3).
	SplitAcks bool

	// PersistsInAckPath: a replica's persist sits inside its acknowledgment
	// path. A follower ACKs an INV once persisted, so one ACK/VAL pair
	// carries both points; a causal replica advances its applied vector at
	// persist completion; transactional state persists at INITX/ENDX
	// (Strict, Synchronous; Figure 4, where under Synchronous a
	// transactional write ACKs on its volatile update and persists at the
	// transaction's ENDX).
	PersistsInAckPath bool

	// ServesPersisted: reads serve a key's persisted version (its NVM image)
	// rather than its visible one (Strict or Synchronous persistency under
	// weak consistency; Figure 2 e-h).
	ServesPersisted bool

	// ReadsWaitLocalPersist: a read stalls until the key's latest visible
	// version is locally persisted (Read-Enforced persistency under weak
	// consistency; Figure 3 c-d).
	ReadsWaitLocalPersist bool

	// PersistsBeforeVisible: the persist precedes visibility. A coordinator
	// persists a strong write before its INV goes out, a follower persists
	// an INV before applying it, and every write, a weak-consistency one
	// included, completes only once persisted on every replica (Strict;
	// Table 2, Section 8.2).
	PersistsBeforeVisible bool

	// Persist is where a persist that nothing waits on is scheduled: at
	// once, at the scope's [PERSIST]s barrier, or after the lazy delay. A
	// persist that gates something is issued where it gates it.
	Persist PersistAt

	// AckDurability is which acknowledged writes the binding promises
	// durable: the rule a crash audit holds it to.
	AckDurability AckDurability
}

// PersistAt places a binding's background persists: the ones no
// acknowledgment, visibility or completion waits on.
type PersistAt int

const (
	// PersistNow issues the persist right after the volatile update
	// (Strict, Synchronous and Read-Enforced persistency).
	PersistNow PersistAt = iota
	// PersistAtScope queues it for its scope's [PERSIST]s barrier (Scope
	// persistency; Figure 5).
	PersistAtScope
	// PersistLazy issues it after the lazy delay (Eventual persistency).
	PersistLazy
)

// AckDurability states which acknowledged writes a binding promises are
// durable: the rule a crash audit holds the binding to, and the reason its
// NVM images need no voting round to reconcile.
type AckDurability int

const (
	// NotDurableAtAck promises nothing: an acknowledged write may still be
	// volatile when the crash comes.
	NotDurableAtAck AckDurability = iota
	// DurableAtAck promises every acknowledged write is already persisted
	// on every replica: Strict persistency, and Synchronous persistency
	// under a consistency model that acknowledges only after its persists
	// (Linearizable, Transactional).
	DurableAtAck
	// DurableAtScope promises a write once its scope's [PERSIST]s barrier
	// completed (Scope persistency).
	DurableAtScope
)

// RulesOf returns m's row of protocol rules.
func RulesOf(m Model) Rules {
	strong := m.C == Linearizable || m.C == ReadEnforcedC || m.C == Transactional
	r := Rules{
		InvAckVal:             strong,
		CausalOrder:           m.C == Causal,
		ReadsStallOnTransient: m.C == Linearizable || m.C == ReadEnforcedC,
		EarlyAck:              (m.C == ReadEnforcedC || m.C == Transactional) && m.P != Strict,
		ServesCommitted:       m.C == Transactional,
		SplitAcks:             m.P == ReadEnforcedP,
		PersistsInAckPath:     m.P == Strict || m.P == Synchronous,
		ServesPersisted:       !strong && (m.P == Strict || m.P == Synchronous),
		ReadsWaitLocalPersist: !strong && m.P == ReadEnforcedP,
		PersistsBeforeVisible: m.P == Strict,
	}
	switch m.P {
	case Scope:
		r.Persist = PersistAtScope
	case EventualP:
		r.Persist = PersistLazy
	}
	switch {
	case m.P == Strict, m.P == Synchronous && (m.C == Linearizable || m.C == Transactional):
		r.AckDurability = DurableAtAck
	case m.P == Scope:
		r.AckDurability = DurableAtScope
	}
	return r
}
