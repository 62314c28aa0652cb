package protocol

import (
	"fmt"

	"repro/internal/core"
)

// Each DDP model binds a data consistency model (Visibility Point) with a
// memory persistency model (Durability Point), the paper's central object.
// The two dimensions are carried out differently:
//
//   - A VisibilityPolicy carries out how an update becomes visible: the
//     strong INV/ACK/VAL broadcast or lazy UPDs, transient and
//     transactional bookkeeping, and how causal history gates application.
//     One implementation per consistency model, one file each:
//     linearizable.go, readenforced_c.go, transactional.go, causal.go,
//     eventual_c.go.
//   - Durability is one path for all five persistency models (durability.go):
//     Table 2 defines every Durability Point relative to the Visibility
//     Point, so the models differ only in where a background persist is
//     scheduled and what a persist gates, both columns of the binding's
//     core.Rules row.
//
// Every fact about a binding — does a write run INV/ACK/VAL, is the
// client acknowledged early, what does a read serve or wait for, are ACKs
// split, where does a persist sit — is one field of that row, which the
// Replica resolves once (Replica.rules) and branches on inline. The
// interface below holds only the visibility hooks that act: each sends,
// applies or records something, in its model's own order.
//
// Hook contract:
//
//   - The policy is resolved to a concrete struct exactly once, at Replica
//     construction (resolveVisibility), together with the rules row. No
//     hook allocates beyond what the equivalent inline protocol code
//     allocated, preserving the steady-state zero-allocation guarantees
//     (see alloc_test.go).
//   - A hook handed a received message (*payload) reads the box the message
//     arrived in, shared with its other receivers: it never writes it, and
//     copies out whatever must outlive the handler.
//   - Policies are stateless empty structs: all mutable protocol state lives
//     in the Replica (keyState, pendingWrite, txnState, scope tables), so a
//     policy value could be shared across replicas.

// VisibilityPolicy encodes the steps of the consistency dimension of a DDP
// model: how an update becomes visible at the replicas. What a read may
// observe is stated in the binding's core.Rules row.
type VisibilityPolicy interface {
	// dispatchWrite routes a client write (or the write half of an RMW)
	// onto the model's write path.
	dispatchWrite(r *Replica, key, scope, txn uint64, done completion)

	// onStrongWriteLaunch records coordinator-side bookkeeping when a
	// strong write starts: read-stall tracking (transC/transP) or
	// transactional write-set growth.
	onStrongWriteLaunch(r *Replica, ks *keyState, key uint64, st Stamp, txn uint64)

	// onInvReceive applies follower-side bookkeeping for an arriving INV
	// before applyInv makes it visible and durable. It returns false when the
	// INV was rejected (transactional write-write conflict NACK).
	onInvReceive(r *Replica, ks *keyState, from int, p *payload) bool

	// causalHistory snapshots the happens-before history a weak write's UPD
	// carries (Causal consistency's cauhist; nil otherwise). The snapshot is
	// replica-owned and valid until the replica's next write: the UPD must
	// be sent before then, and the send copies it into its payload box.
	causalHistory(r *Replica) []uint64

	// propagateWeak ships a weak write's UPD to the other replicas, now
	// (Causal) or lazily (Eventual; Figure 2g).
	propagateWeak(r *Replica, upd payload)

	// onUpdate handles a UPD at a follower: causal delivery through the
	// reorder buffer, or last-writer-wins application.
	onUpdate(r *Replica, from int, p *payload)

	// selfApply advances causal bookkeeping after one of the coordinator's
	// own writes reaches its visibility/durability point.
	selfApply(r *Replica)
}

// resolveVisibility maps a DDP model to its visibility policy. It is called
// once per Replica, at construction; every later policy interaction is a
// direct interface call on the resolved value.
func resolveVisibility(m core.Model) VisibilityPolicy {
	switch m.C {
	case core.Linearizable:
		return linearizableVis{}
	case core.ReadEnforcedC:
		return readEnforcedVis{}
	case core.Transactional:
		return transactionalVis{}
	case core.Causal:
		return causalVis{}
	case core.Eventual:
		return eventualVis{}
	}
	panic(fmt.Sprintf("protocol: no visibility policy for %v", m.C))
}
