package protocol

import "repro/internal/core"

// The durability side of every binding, written once. Table 2 defines each
// Durability Point relative to the Visibility Point, and the five
// persistency models differ in two facts, both columns of the binding's
// core.Rules row:
//
//   - what a persist gates: visibility, launch and completion under Strict
//     (PersistsBeforeVisible); the ACK and the applied-vector advance under
//     Synchronous (PersistsInAckPath); only the ACK_p and VAL_p under
//     Read-Enforced (SplitAcks); nothing under Scope and Eventual, which
//     send ACK_c, then VAL_c;
//   - where a persist that nothing waits on is scheduled (Persist; see
//     persistBackground).
//
// The write paths hand over to the nine sites below, each of which branches
// on the row and keeps its model's order of sends and persists.

// persistBackground schedules a persist that nothing waits on: at once, at
// the scope's [PERSIST]s barrier, or after the lazy delay.
func (r *Replica) persistBackground(key uint64, st Stamp, scope uint64) {
	switch r.rules.Persist {
	case core.PersistAtScope:
		r.deferScopePersist(scope, key, st)
	case core.PersistLazy:
		r.after(r.p.LazyPersist, cont{kind: contPersist}, key, st)
	default:
		r.persist(key, st, cont{})
	}
}

// startStrongWrite launches a booked strong write. Under Strict persistency
// the coordinator persists it before the INV goes out (Table 2: durable when
// the update takes place), and onLocalPersist launches it.
func (r *Replica) startStrongWrite(pw *pendingWrite) {
	if r.rules.PersistsBeforeVisible {
		r.persist(pw.key, pw.stamp, cont{kind: contLocalPersist})
		return
	}
	r.launchStrongWrite(pw)
}

// startLocalDurability arranges the coordinator's persist of a launched
// strong write.
func (r *Replica) startLocalDurability(pw *pendingWrite) {
	switch {
	case r.rules.PersistsBeforeVisible: // persisted before launch
	case r.rules.PersistsInAckPath && r.rules.ServesCommitted && pw.txn != 0:
		r.deferTxnPersist(pw.txn, pw.key, pw.stamp) // at ENDX (Figure 4)
	case r.rules.Persist == core.PersistNow:
		// The VAL (Synchronous; Figure 2a) or the VAL_p (Read-Enforced)
		// waits for it.
		r.persist(pw.key, pw.stamp, cont{kind: contLocalPersist})
	default:
		r.persistBackground(pw.key, pw.stamp, pw.scope)
	}
}

// onLocalPersist continues a round once the coordinator's own persist of it
// completed and pw.localPersist is set.
func (r *Replica) onLocalPersist(pw *pendingWrite) {
	switch {
	case r.rules.PersistsBeforeVisible && !r.rules.InvAckVal:
		// The coordinator's share of persisted-everywhere (Section 8.2).
		if r.rules.CausalOrder {
			r.advanceApplied(r.id)
		}
		r.maybeFinishWeakStrictWrite(pw)
	case r.rules.PersistsBeforeVisible:
		r.launchStrongWrite(pw)
	case r.rules.SplitAcks:
		r.maybeValidateP(pw)
	case pw.cAcks == -1: // Synchronous: every ACK came in first
		r.finishWrite(pw, MsgVAL)
	}
}

// applyInv makes an INV's update visible and durable at a follower in the
// persistency model's order, and sends the matching ACK flavor.
func (r *Replica) applyInv(from int, p *payload) {
	if r.rules.PersistsBeforeVisible {
		r.persist(p.Key, p.Stamp, cont{kind: contApplyAck, node: int32(from), arg: p.Txn})
		return
	}
	r.applyVisible(p.Key, p.Stamp)
	ackC := payload{Kind: MsgACKc, Stamp: p.Stamp, Txn: p.Txn}
	switch {
	case r.rules.PersistsInAckPath && r.rules.ServesCommitted && p.Txn != 0:
		// A transactional write ACKs on the volatile update and persists
		// at ENDX (Figure 4).
		r.deferTxnPersist(p.Txn, p.Key, p.Stamp)
		r.send(from, payload{Kind: MsgACK, Stamp: p.Stamp, Txn: p.Txn})
	case r.rules.PersistsInAckPath:
		r.persist(p.Key, p.Stamp, ackTo(MsgACK, from, 0))
	case r.rules.SplitAcks: // Figure 3a
		r.send(from, ackC)
		r.persist(p.Key, p.Stamp, ackTo(MsgACKp, from, 0))
	case r.rules.Persist == core.PersistAtScope:
		// Queued for the barrier before the ACK_c goes out.
		r.persistBackground(p.Key, p.Stamp, p.Scope)
		r.send(from, ackC)
	default:
		r.send(from, ackC)
		r.persistBackground(p.Key, p.Stamp, p.Scope)
	}
}

// consistencyAcked runs at the coordinator once every consistency ACK for a
// strong write is in.
func (r *Replica) consistencyAcked(pw *pendingWrite) {
	switch {
	case r.rules.SplitAcks:
		// Complete on the ACK_c; VAL_p follows once every replica persisted.
		if r.rules.ServesCommitted {
			r.releaseTxnWriteLock(pw.key)
		}
		r.completeWrite(pw)
		r.maybeValidateP(pw)
	case r.rules.ServesCommitted && !r.rules.PersistsBeforeVisible:
		// The write's conflict window closes; the transaction's ENDX/VAL
		// finishes everything (Figure 4).
		r.releaseTxnWriteLock(pw.key)
		r.dropPending(pw)
	case r.rules.PersistsInAckPath && !pw.localPersist:
		pw.cAcks = -1 // Synchronous: onLocalPersist validates (Figure 2a)
	case r.rules.PersistsInAckPath:
		if r.rules.ServesCommitted {
			r.releaseTxnWriteLock(pw.key)
		}
		r.finishWrite(pw, MsgVAL)
	default:
		r.finishWrite(pw, MsgVALc)
	}
}

// onPersistAck handles a follower's ACK_p for a pending write.
func (r *Replica) onPersistAck(pw *pendingWrite) {
	switch {
	case r.rules.SplitAcks:
		r.maybeValidateP(pw)
	case r.rules.PersistsBeforeVisible && !r.rules.InvAckVal:
		r.maybeFinishWeakStrictWrite(pw)
	}
}

// persistWeakWrite arranges a weak write's local durability and reports
// whether the write completes to the client now.
func (r *Replica) persistWeakWrite(key uint64, st Stamp, scope uint64) bool {
	switch {
	case r.rules.PersistsBeforeVisible:
		r.persist(key, st, cont{kind: contLocalPersist})
		return false // completion arrives via ACK_p collection
	case r.rules.PersistsInAckPath && r.rules.CausalOrder:
		// The applied-vector advance waits for the persist (Synchronous).
		r.persist(key, st, cont{kind: contSelfApply})
	case r.rules.PersistsInAckPath:
		r.persist(key, st, cont{})
	default:
		r.persistBackground(key, st, scope)
		if r.rules.CausalOrder {
			r.advanceApplied(r.id)
		}
	}
	return true
}

// persistCausalApply arranges durability for a causally delivered update
// and advances the applied vector. Where the persist gates the advance, so
// that causally dependent updates wait for it, Causal+Synchronous buffers
// one to two orders of magnitude more writes than Causal+Eventual
// (Section 8.1.2).
func (r *Replica) persistCausalApply(key uint64, st Stamp, scope uint64) {
	src := st.Node()
	switch {
	case r.rules.PersistsBeforeVisible:
		// Also reports the durable copy back to the writer.
		r.persist(key, st, cont{kind: contAdvanceAck, node: int32(src)})
	case r.rules.PersistsInAckPath:
		r.persist(key, st, cont{kind: contAdvance, node: int32(src)})
	default:
		r.persistBackground(key, st, scope)
		r.advanceApplied(src)
	}
}

// persistFollowerUpdate arranges durability for a UPD that just became
// visible at this follower.
func (r *Replica) persistFollowerUpdate(from int, p *payload) {
	if r.rules.PersistsBeforeVisible {
		// Reports back so the writer's stalled completion can progress.
		r.persist(p.Key, p.Stamp, ackTo(MsgACKp, from, 0))
		return
	}
	r.persistBackground(p.Key, p.Stamp, p.Scope)
}

// finishWrite validates a strong write with kind, completes it and drops
// its record.
func (r *Replica) finishWrite(pw *pendingWrite, kind MsgKind) {
	r.validate(pw, kind)
	r.completeWrite(pw)
	r.dropPending(pw)
}

// maybeValidateP broadcasts VAL_p once every ACK_c, every ACK_p and the
// local persist are in (Read-Enforced persistency; Figure 3).
func (r *Replica) maybeValidateP(pw *pendingWrite) {
	if pw.cAcks == 0 && pw.pAcks == 0 && pw.localPersist {
		r.validateP(pw)
		r.dropPending(pw)
	}
}
