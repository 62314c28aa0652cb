package protocol

import (
	"fmt"

	"repro/internal/core"
)

// The policy layer factors each DDP model into its two composable
// dimensions, mirroring the paper's central object — the binding of a data
// consistency model (Visibility Point) with a memory persistency model
// (Durability Point):
//
//   - A VisibilityPolicy carries out how an update becomes visible: the
//     strong INV/ACK/VAL broadcast or lazy UPDs, transient and
//     transactional bookkeeping, and how causal history gates application.
//     One implementation per consistency model, one file each:
//     linearizable.go, readenforced_c.go, transactional.go, causal.go,
//     eventual_c.go.
//   - A DurabilityPolicy carries out when an update becomes durable: where
//     the NVM persist sits relative to propagation and acknowledgment, and
//     which ACK flavor reports it. One implementation per persistency model, one file each:
//     strict.go, synchronous.go, readenforced_p.go, scope.go, eventual_p.go.
//
// The Replica core is model-agnostic plumbing — stamps, pending-write
// bookkeeping, broadcast, persist coalescing, worker/NVM queueing — and
// invokes the two policies at fixed hook points.
//
// Data and behaviour are split. Every yes/no fact about a binding — does a
// write run INV/ACK/VAL, is the client acknowledged early, what does a read
// serve or wait for, are ACKs split, does transactional state persist at
// INITX/ENDX — is one field of the binding's core.Rules row, which the
// Replica resolves once (Replica.rules) and branches on inline. The two
// interfaces below hold only the hooks that act: each sends, persists,
// validates or completes something, in its model's own order.
//
// Hook contract:
//
//   - Policies are resolved to concrete structs exactly once, at Replica
//     construction (resolvePolicies), together with the rules row. No hook
//     allocates beyond what the equivalent inline protocol code allocated,
//     preserving the steady-state zero-allocation guarantees (see
//     alloc_test.go).
//   - A hook handed a received message (*payload) reads the box the message
//     arrived in, shared with its other receivers: it never writes it, and
//     copies out whatever must outlive the handler.
//   - Policies are stateless empty structs: all mutable protocol state lives
//     in the Replica (keyState, pendingWrite, txnState, scope tables), so a
//     policy value could be shared across replicas.
//   - Table 2 defines every Durability Point in terms of the Visibility
//     Point, so a durability hook may ask about the consistency side it
//     composes with: r.rules.InvAckVal (strong broadcast or lazy UPDs) and
//     r.model.C (transactional grouping).
//
// The resolver reads a core.Model's two dimensions directly: the 25 cells of
// the matrix are the only models, so each cell names its policy pair.

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
	// before the durability policy acts on it. It returns false when the
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

// DurabilityPolicy encodes the persistency dimension of a DDP model: when
// an update reaches NVM relative to its visibility point.
type DurabilityPolicy interface {
	// onStrongWriteLaunch gates a strong write's INV broadcast on the
	// durability model: Strict persists locally before the update
	// propagates (Table 2); everyone else launches immediately via
	// r.launchStrongWrite.
	onStrongWriteLaunch(r *Replica, pw *pendingWrite)

	// startLocalDurability arranges the coordinator-side persist for a
	// launched strong write.
	startLocalDurability(r *Replica, pw *pendingWrite)

	// onLocalPersist continues a pending write's round once the
	// coordinator's own persist of it (a contLocalPersist continuation)
	// completed and pw.localPersist is set.
	onLocalPersist(r *Replica, pw *pendingWrite)

	// onInvReceive makes an INV's update visible and durable at a follower
	// in the persistency model's order, and sends the matching ACK flavor.
	onInvReceive(r *Replica, from int, p *payload)

	// onConsistencyAcked runs at the coordinator when every consistency ACK
	// for a strong write is in: validation, completion, or further waiting.
	onConsistencyAcked(r *Replica, pw *pendingWrite)

	// onPersistAck handles a persistency acknowledgment (ACK or ACK_p) for
	// a pending write at the coordinator.
	onPersistAck(r *Replica, pw *pendingWrite)

	// onWeakWrite arranges local durability for a weak-consistency write
	// and reports whether the write completes to the client now (false for
	// Strict, whose completion arrives via ACK_p collection).
	onWeakWrite(r *Replica, pw *pendingWrite, key uint64, st Stamp, scope uint64) bool

	// onCausalApply arranges durability for a causally delivered update and
	// advances the applied vector at the persistency model's point — the
	// persist gating that separates Causal+Synchronous from
	// Causal+Eventual by orders of magnitude of buffering (Section 8.1.2).
	onCausalApply(r *Replica, p payload, src int)

	// onFollowerUpdate arranges durability for a weak-consistency update
	// that just became visible at this follower.
	onFollowerUpdate(r *Replica, from int, p *payload)
}

// resolvePolicies maps a DDP model to its (visibility, durability) policy
// pair. It is called once per Replica, at construction; every later policy
// interaction is a direct interface call on the resolved values.
func resolvePolicies(m core.Model) (VisibilityPolicy, DurabilityPolicy) {
	var vis VisibilityPolicy
	switch m.C {
	case core.Linearizable:
		vis = linearizableVis{}
	case core.ReadEnforcedC:
		vis = readEnforcedVis{}
	case core.Transactional:
		vis = transactionalVis{}
	case core.Causal:
		vis = causalVis{}
	case core.Eventual:
		vis = eventualVis{}
	default:
		panic(fmt.Sprintf("protocol: no visibility policy for %v", m.C))
	}
	var dur DurabilityPolicy
	switch m.P {
	case core.Strict:
		dur = strictDur{}
	case core.Synchronous:
		dur = synchronousDur{}
	case core.ReadEnforcedP:
		dur = readEnforcedDur{}
	case core.Scope:
		dur = scopeDur{}
	case core.EventualP:
		dur = eventualDur{}
	default:
		panic(fmt.Sprintf("protocol: no durability policy for %v", m.P))
	}
	return vis, dur
}

// consAckedValidateC is the shared all-consistency-ACKs path of the
// durability models whose persists are decoupled from the write round
// (Scope, Eventual): broadcast VAL_c, complete, and — under Transactional
// consistency — just release the conflict window (the transaction's
// ENDX/VAL closes everything; Figure 4).
func consAckedValidateC(r *Replica, pw *pendingWrite) {
	if r.model.C == core.Transactional {
		r.releaseTxnWriteLock(pw.key)
		r.dropPending(pw)
		return
	}
	r.validate(pw, MsgVALc)
	r.completeWrite(pw)
	r.dropPending(pw)
}
