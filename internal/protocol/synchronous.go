package protocol

// synchronousDur implements Synchronous persistency: an update is durable
// at its visibility point (Table 2) — the persist sits inside each
// replica's acknowledgment path, so validation waits for it. Under
// Transactional consistency the persists of a transaction's writes bunch at
// ENDX instead (Figure 4); under weak consistency the visibility and
// durability points coincide, gating causal applies on persists
// (Section 8.1.2).
type synchronousDur struct{ durClass }

func (synchronousDur) tracksTransP() bool            { return false }
func (synchronousDur) allowsEarlyCompletion() bool   { return true }
func (synchronousDur) persistsAtTxnBoundaries() bool { return true }
func (d synchronousDur) servesPersistedImage() bool  { return d.weak }

// onStrongWriteLaunch launches immediately; durability rides the ACK path.
func (synchronousDur) onStrongWriteLaunch(r *Replica, pw *pendingWrite) {
	r.launchStrongWrite(pw)
}

// startLocalDurability persists the coordinator's copy; the VAL waits for
// it (Figure 2a). Transactional writes defer to ENDX (Figure 4).
func (d synchronousDur) startLocalDurability(r *Replica, pw *pendingWrite) {
	if d.transactional && pw.txn != 0 {
		r.deferTxnPersist(pw.txn, pw.key, pw.stamp)
		pw.localPersist = true
		return
	}
	r.persist(pw.key, pw.stamp, cont{kind: contLocalPersist})
}

func (d synchronousDur) onLocalPersist(r *Replica, pw *pendingWrite) { d.maybeFinish(r, pw) }

// onInvReceive applies, persists, then ACKs — the follower's acknowledgment
// implies its NVM copy. Transactional writes ACK on the volatile update and
// persist at ENDX (Figure 4).
func (d synchronousDur) onInvReceive(r *Replica, from int, p *payload) {
	r.applyVisible(p.Key, p.Stamp)
	if d.transactional && p.Txn != 0 {
		r.deferTxnPersist(p.Txn, p.Key, p.Stamp)
		r.send(from, payload{Kind: MsgACK, Stamp: p.Stamp, Txn: p.Txn})
		return
	}
	r.persist(p.Key, p.Stamp, ackTo(MsgACK, from, 0))
}

// onConsistencyAcked validates only after the local persist finishes
// (Figure 2a); under Transactional consistency the write's conflict window
// just closes — the transaction's ENDX/VAL finishes everything.
func (d synchronousDur) onConsistencyAcked(r *Replica, pw *pendingWrite) {
	if d.transactional {
		r.releaseTxnWriteLock(pw.key)
		r.dropPending(pw)
		return
	}
	if pw.localPersist {
		r.validate(pw, MsgVAL)
		r.completeWrite(pw)
		r.dropPending(pw)
	} else {
		pw.valSent = false
		pw.cAcks = -1 // consistency phase done; the persist callback finishes
	}
}

func (d synchronousDur) onPersistAck(r *Replica, pw *pendingWrite) { d.maybeFinish(r, pw) }

// maybeFinish closes the deferred path: all ACKs were in before the local
// persist completed.
func (synchronousDur) maybeFinish(r *Replica, pw *pendingWrite) {
	if pw.cAcks == -1 && pw.localPersist {
		r.validate(pw, MsgVAL)
		r.completeWrite(pw)
		r.dropPending(pw)
	}
}

func (synchronousDur) weakWriteNeedsAcks() bool { return false }

// onWeakWrite persists locally; the applied vector (which gates dependent
// causal applies) only advances at persist completion.
func (synchronousDur) onWeakWrite(r *Replica, pw *pendingWrite, key uint64, st Stamp, scope uint64) bool {
	r.persist(key, st, cont{kind: contSelfApply})
	return true
}

// onCausalApply gates the applied vector on the persist — the buffering
// amplifier of Section 8.1.2.
func (synchronousDur) onCausalApply(r *Replica, p payload, src int) {
	r.persist(p.Key, p.Stamp, cont{kind: contAdvance, node: int32(src)})
}

func (synchronousDur) onFollowerUpdate(r *Replica, from int, p *payload) {
	r.persist(p.Key, p.Stamp, cont{})
}

func (synchronousDur) readBlocked(r *Replica, ks *keyState) bool { return false }
