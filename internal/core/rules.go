package core

// Rules is one binding's row of protocol rules: every yes/no fact the code
// asks about a <consistency, persistency> binding, stated once from Table 2.
// internal/protocol's replicas resolve their row at construction and branch
// on it; Describe renders it; the cluster, the harness and the crash audit
// read it. The policy hooks that act (internal/protocol's VisibilityPolicy
// and DurabilityPolicy) stay per-model code; what they decide between is
// here.
type Rules struct {
	// InvAckVal: writes run the INV/ACK/VAL broadcast (Linearizable,
	// Read-Enforced, Transactional) rather than lazy UPD propagation
	// (Causal, Eventual).
	InvAckVal bool

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

	// PersistsAtTxnBoundaries: a follower's persist sits inside its
	// acknowledgment path, so one ACK/VAL pair carries both points and
	// transactional state persists at INITX/ENDX (Strict, Synchronous;
	// Figure 4).
	PersistsAtTxnBoundaries bool

	// ServesPersisted: reads serve a key's persisted version (its NVM image)
	// rather than its visible one (Strict or Synchronous persistency under
	// weak consistency; Figure 2 e-h).
	ServesPersisted bool

	// ReadsWaitLocalPersist: a read stalls until the key's latest visible
	// version is locally persisted (Read-Enforced persistency under weak
	// consistency; Figure 3 c-d).
	ReadsWaitLocalPersist bool

	// WeakWriteWaitsPersists: every write, a weak-consistency one included,
	// completes only once persisted on every replica (Strict; Section 8.2).
	WeakWriteWaitsPersists bool

	// AckDurability is which acknowledged writes the binding promises
	// durable: the rule a crash audit holds it to.
	AckDurability AckDurability
}

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
		InvAckVal:               strong,
		ReadsStallOnTransient:   m.C == Linearizable || m.C == ReadEnforcedC,
		EarlyAck:                (m.C == ReadEnforcedC || m.C == Transactional) && m.P != Strict,
		ServesCommitted:         m.C == Transactional,
		SplitAcks:               m.P == ReadEnforcedP,
		PersistsAtTxnBoundaries: m.P == Strict || m.P == Synchronous,
		ServesPersisted:         !strong && (m.P == Strict || m.P == Synchronous),
		ReadsWaitLocalPersist:   !strong && m.P == ReadEnforcedP,
		WeakWriteWaitsPersists:  m.P == Strict,
	}
	switch {
	case m.P == Strict, m.P == Synchronous && (m.C == Linearizable || m.C == Transactional):
		r.AckDurability = DurableAtAck
	case m.P == Scope:
		r.AckDurability = DurableAtScope
	}
	return r
}
