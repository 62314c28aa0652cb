package protocol

// strictDur implements Strict persistency: an update is durable when it
// takes place (Table 2) — the persist precedes visibility everywhere, the
// coordinator persists before the update even propagates, and nothing
// completes early. Under weak consistency the write still stalls until
// persisted on every replica (Section 8.2).
type strictDur struct{ durClass }

func (strictDur) tracksTransP() bool            { return false }
func (strictDur) allowsEarlyCompletion() bool   { return false }
func (strictDur) persistsAtTxnBoundaries() bool { return true }
func (d strictDur) servesPersistedImage() bool  { return d.weak }

// onStrongWriteLaunch persists the coordinator's update before the INV goes
// out (Table 2: the DP is "when the update takes place").
func (strictDur) onStrongWriteLaunch(r *Replica, pw *pendingWrite) {
	r.persist(pw.key, pw.stamp, cont{kind: contLocalPersist})
}

// startLocalDurability is a no-op: the launch gate already persisted.
func (strictDur) startLocalDurability(r *Replica, pw *pendingWrite) {}

// onLocalPersist launches the gated strong write; under weak consistency it
// is the coordinator's share of persisted-everywhere (Section 8.2).
func (d strictDur) onLocalPersist(r *Replica, pw *pendingWrite) {
	if d.weak {
		r.selfApplyCausal()
		r.maybeFinishWeakStrictWrite(pw)
		return
	}
	r.launchStrongWrite(pw)
}

// onInvReceive persists before the volatile replica becomes visible.
func (strictDur) onInvReceive(r *Replica, from int, p *payload) {
	r.persist(p.Key, p.Stamp, cont{kind: contApplyAck, node: int32(from), arg: p.Txn})
}

// onConsistencyAcked completes the write: ACKs imply persistence
// everywhere, and the local persist preceded launch.
func (d strictDur) onConsistencyAcked(r *Replica, pw *pendingWrite) {
	if d.transactional {
		r.releaseTxnWriteLock(pw.key)
	}
	r.validate(pw, MsgVAL)
	r.completeWrite(pw)
	r.dropPending(pw)
}

// onPersistAck collects follower persists for the weak-consistency path;
// under strong consistency the combined ACK already carried persistence.
func (d strictDur) onPersistAck(r *Replica, pw *pendingWrite) {
	if d.weak {
		r.maybeFinishWeakStrictWrite(pw)
	}
}

func (strictDur) weakWriteNeedsAcks() bool { return true }

// onWeakWrite persists locally and defers client completion to ACK_p
// collection (Section 8.2 stalls the write until persisted everywhere).
func (strictDur) onWeakWrite(r *Replica, pw *pendingWrite, key uint64, st Stamp, scope uint64) bool {
	r.persist(key, st, cont{kind: contLocalPersist})
	return false
}

// onCausalApply gates the applied vector on the persist and reports the
// durable copy back to the writer.
func (strictDur) onCausalApply(r *Replica, p payload, src int) {
	r.persist(p.Key, p.Stamp, cont{kind: contAdvanceAck, node: int32(src)})
}

// onFollowerUpdate persists and reports back so the writer's stalled
// completion can make progress.
func (strictDur) onFollowerUpdate(r *Replica, from int, p *payload) {
	r.persist(p.Key, p.Stamp, ackTo(MsgACKp, from, 0))
}

func (strictDur) readBlocked(r *Replica, ks *keyState) bool { return false }
