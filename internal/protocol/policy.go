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
//   - A VisibilityPolicy decides when an update becomes visible: whether
//     writes run the strong INV/ACK/VAL broadcast or lazy UPDs, which reads
//     stall on unvalidated writes, and how causal history gates application.
//     One implementation per consistency model, one file each:
//     linearizable.go, readenforced_c.go, transactional.go, causal.go,
//     eventual_c.go.
//   - A DurabilityPolicy decides when an update becomes durable: where the
//     NVM persist sits relative to propagation, acknowledgment, and read
//     service. One implementation per persistency model, one file each:
//     strict.go, synchronous.go, readenforced_p.go, scope.go, eventual_p.go.
//
// The Replica core is model-agnostic plumbing — stamps, pending-write
// bookkeeping, broadcast, persist coalescing, worker/NVM queueing — and
// invokes the two policies at fixed hook points.
//
// Hook contract:
//
//   - Policies are resolved to concrete structs exactly once, at Replica
//     construction (resolvePolicies). No hook allocates beyond what the
//     equivalent inline protocol code allocated, preserving the
//     steady-state zero-allocation guarantees (see alloc_test.go).
//   - Policies are stateless values: all mutable protocol state lives in
//     the Replica (keyState, pendingWrite, txnState, scope tables), so a
//     policy value could be shared across replicas.
//   - A DurabilityPolicy is constructed against durClass — the
//     consistency-side facts it composes with (weak propagation,
//     transactional grouping). Table 2 defines every Durability Point in
//     terms of the Visibility Point, so this coupling is semantic, not a
//     layering leak.
//
// Custom bindings registered via core.Register (public: ddp.RegisterModel)
// resolve through core.ImplOf onto these same implementations.

// VisibilityPolicy encodes the consistency dimension of a DDP model: when
// an update becomes visible at the replicas and what reads may observe.
type VisibilityPolicy interface {
	// usesInvAckVal reports whether writes run the strong INV/ACK/VAL
	// broadcast (Linearizable, Read-Enforced, Transactional) rather than
	// lazy UPD propagation (Causal, Eventual).
	usesInvAckVal() bool

	// dispatchWrite routes a client write (or the write half of an RMW)
	// onto the model's write path.
	dispatchWrite(r *Replica, key, scope, txn uint64, done completion)

	// earlyWriteCompletion reports whether a strong write acknowledges the
	// client as soon as the local update and INV broadcast are out
	// (Read-Enforced and Transactional consistency; Figure 3/4) — unless
	// the durability policy vetoes it (Strict).
	earlyWriteCompletion() bool

	// onStrongWriteLaunch records coordinator-side bookkeeping when a
	// strong write starts: read-stall tracking (transC/transP) or
	// transactional write-set growth.
	onStrongWriteLaunch(r *Replica, ks *keyState, key uint64, st Stamp, txn uint64)

	// onInvReceive applies follower-side bookkeeping for an arriving INV
	// before the durability policy acts on it. It returns false when the
	// INV was rejected (transactional write-write conflict NACK).
	onInvReceive(r *Replica, ks *keyState, from int, p payload) bool

	// readBlocked reports whether a read of ks must stall for consistency
	// validation (Linearizable / Read-Enforced block on unvalidated writes).
	readBlocked(r *Replica, ks *keyState) bool

	// servesCommitted reports whether reads serve the latest transactionally
	// committed version instead of the visible one (Section 2.1).
	servesCommitted() bool

	// causalHistory snapshots the happens-before history a weak write's UPD
	// carries (Causal consistency's cauhist; nil otherwise).
	causalHistory(r *Replica) []uint64

	// propagateWeak ships a weak write's UPD to the other replicas, now
	// (Causal) or lazily (Eventual; Figure 2g).
	propagateWeak(r *Replica, upd payload)

	// onUpdate handles a UPD at a follower: causal delivery through the
	// reorder buffer, or last-writer-wins application.
	onUpdate(r *Replica, from int, p payload)

	// selfApply advances causal bookkeeping after one of the coordinator's
	// own writes reaches its visibility/durability point.
	selfApply(r *Replica)
}

// DurabilityPolicy encodes the persistency dimension of a DDP model: when
// an update reaches NVM relative to its visibility point.
type DurabilityPolicy interface {
	// tracksTransP reports whether writes are tracked as
	// persistency-transient until VAL_p (Read-Enforced persistency's
	// read-stall state; Figure 3).
	tracksTransP() bool

	// allowsEarlyCompletion reports whether the consistency model's early
	// write acknowledgment may stand (everything but Strict).
	allowsEarlyCompletion() bool

	// persistsAtTxnBoundaries reports whether transactional state persists
	// at INITX/ENDX (Synchronous and Strict; Figure 4).
	persistsAtTxnBoundaries() bool

	// servesPersistedImage reports whether reads serve the NVM image rather
	// than the volatile store (Synchronous/Strict under weak consistency;
	// Figure 2 e-h).
	servesPersistedImage() bool

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
	onInvReceive(r *Replica, from int, p payload)

	// onConsistencyAcked runs at the coordinator when every consistency ACK
	// for a strong write is in: validation, completion, or further waiting.
	onConsistencyAcked(r *Replica, pw *pendingWrite)

	// onPersistAck handles a persistency acknowledgment (ACK or ACK_p) for
	// a pending write at the coordinator.
	onPersistAck(r *Replica, pw *pendingWrite)

	// weakWriteNeedsAcks reports whether a weak-consistency write must
	// collect follower persist ACKs before completing (Strict; Section 8.2).
	weakWriteNeedsAcks() bool

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
	onFollowerUpdate(r *Replica, from int, p payload)

	// readBlocked reports whether a read of ks must stall for local
	// persistence (Read-Enforced persistency under weak consistency;
	// Figure 3 c-d).
	readBlocked(r *Replica, ks *keyState) bool
}

// durClass carries the consistency-side facts a durability policy composes
// against: the paper defines each Durability Point relative to the
// Visibility Point (Table 2), so the persistency dimension is composable
// but not blind.
type durClass struct {
	weak          bool // paired consistency propagates by lazy UPDs
	transactional bool // paired consistency groups writes into transactions
}

// resolvePolicies maps a DDP model to its (visibility, durability) policy
// pair. Custom bindings resolve through the core registry onto the
// canonical implementations. It is called once per Replica, at
// construction; every later policy interaction is a direct interface call
// on the resolved values.
func resolvePolicies(m core.Model) (VisibilityPolicy, DurabilityPolicy) {
	impl := core.ImplOf(m)
	var vis VisibilityPolicy
	switch impl.C {
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
		panic(fmt.Sprintf("protocol: no visibility policy for %v", impl.C))
	}
	cls := durClass{
		weak:          !core.UsesInvAckVal(impl.C),
		transactional: impl.C == core.Transactional,
	}
	var dur DurabilityPolicy
	switch impl.P {
	case core.Strict:
		dur = strictDur{cls}
	case core.Synchronous:
		dur = synchronousDur{cls}
	case core.ReadEnforcedP:
		dur = readEnforcedDur{cls}
	case core.Scope:
		dur = scopeDur{cls}
	case core.EventualP:
		dur = eventualDur{cls}
	default:
		panic(fmt.Sprintf("protocol: no durability policy for %v", impl.P))
	}
	return vis, dur
}

// consAckedValidateC is the shared all-consistency-ACKs path of the
// durability models whose persists are decoupled from the write round
// (Scope, Eventual): broadcast VAL_c, complete, and — under Transactional
// consistency — just release the conflict window (the transaction's
// ENDX/VAL closes everything; Figure 4).
func consAckedValidateC(r *Replica, pw *pendingWrite, transactional bool) {
	if transactional {
		r.releaseTxnWriteLock(pw.key)
		r.dropPending(pw)
		return
	}
	r.validate(pw, MsgVALc)
	r.completeWrite(pw)
	r.dropPending(pw)
}
