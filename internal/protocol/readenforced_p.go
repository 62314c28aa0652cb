package protocol

// readEnforcedDur implements Read-Enforced persistency: an update must be
// durable before it is read (Table 2). Writes complete on the consistency
// ACKs; persists run in the background and a separate VAL_p releases
// readers once every replica persisted (Figure 3). Under weak consistency
// the enforcement point moves into the read path: a read stalls until the
// latest visible version is locally persisted (Figure 3 c-d).
type readEnforcedDur struct{ durClass }

func (readEnforcedDur) tracksTransP() bool            { return true }
func (readEnforcedDur) allowsEarlyCompletion() bool   { return true }
func (readEnforcedDur) persistsAtTxnBoundaries() bool { return false }
func (readEnforcedDur) servesPersistedImage() bool    { return false }

func (readEnforcedDur) onStrongWriteLaunch(r *Replica, pw *pendingWrite) {
	r.launchStrongWrite(pw)
}

// startLocalDurability persists in the background; the VAL_p waits for it.
func (readEnforcedDur) startLocalDurability(r *Replica, pw *pendingWrite) {
	r.persist(pw.key, pw.stamp, cont{kind: contLocalPersist})
}

func (d readEnforcedDur) onLocalPersist(r *Replica, pw *pendingWrite) { d.maybeFinish(r, pw) }

// onInvReceive ACKs consistency immediately and persistency when the local
// persist completes — the split-ACK flavor of Figure 3a.
func (readEnforcedDur) onInvReceive(r *Replica, from int, p *payload) {
	r.applyVisible(p.Key, p.Stamp)
	r.send(from, payload{Kind: MsgACKc, Stamp: p.Stamp, Txn: p.Txn})
	r.persist(p.Key, p.Stamp, ackTo(MsgACKp, from, 0))
}

// onConsistencyAcked completes the write at the client on all ACK_c; the
// VAL_p flows later, once every replica (and the coordinator) persisted.
func (d readEnforcedDur) onConsistencyAcked(r *Replica, pw *pendingWrite) {
	if d.transactional {
		r.releaseTxnWriteLock(pw.key)
	}
	r.completeWrite(pw)
	d.maybeFinish(r, pw)
}

func (d readEnforcedDur) onPersistAck(r *Replica, pw *pendingWrite) { d.maybeFinish(r, pw) }

// maybeFinish broadcasts VAL_p once all ACK_c, all ACK_p, and the local
// persist are in.
func (readEnforcedDur) maybeFinish(r *Replica, pw *pendingWrite) {
	if pw.cAcks == 0 && pw.pAcks == 0 && pw.localPersist {
		r.validateP(pw)
		r.dropPending(pw)
	}
}

func (readEnforcedDur) weakWriteNeedsAcks() bool { return false }

func (readEnforcedDur) onWeakWrite(r *Replica, pw *pendingWrite, key uint64, st Stamp, scope uint64) bool {
	r.persist(key, st, cont{})
	r.selfApplyCausal()
	return true
}

func (readEnforcedDur) onCausalApply(r *Replica, p payload, src int) {
	r.persist(p.Key, p.Stamp, cont{})
	r.advanceApplied(src)
}

func (readEnforcedDur) onFollowerUpdate(r *Replica, from int, p *payload) {
	r.persist(p.Key, p.Stamp, cont{})
}

// readBlocked stalls weak-consistency reads until the latest visible
// version is locally persisted (Figure 3 c-d).
func (d readEnforcedDur) readBlocked(r *Replica, ks *keyState) bool {
	if !d.weak {
		return false
	}
	return ks.persisted < ks.visible
}
