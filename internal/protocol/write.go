package protocol

// txnWriteAttempt applies Section 5.4's conflict handling: a transactional
// write conflicts with another transaction's *in-flight* write to the same
// key (a write is in flight from its INV broadcast until every replica has
// acknowledged it). The conflicting requester squashes and the client
// retries — the squash flavor of the actions Section 5.4 permits.
func (r *Replica) txnWriteAttempt(key uint64, scope, txn uint64, done completion) {
	tx := r.txns[txn]
	if tx == nil || tx.status != txnActive {
		return // transaction already aborted; client will retry
	}
	ks := r.keys.at(key)
	if ks.lockTxn != 0 && ks.lockTxn != txn {
		tx.conflicted = true
		r.squash(tx)
		return
	}
	ks.lockTxn = txn
	r.strongWrite(key, scope, txn, done)
}

// strongWrite starts the INV/ACK/VAL broadcast round for Linearizable,
// Read-Enforced, and Transactional consistency (Figures 2-5): it books the
// pending write, lets the visibility policy record its read-stall or
// write-set state, and starts it (startStrongWrite, which gates the
// broadcast on a persist under Strict persistency).
func (r *Replica) strongWrite(key uint64, scope, txn uint64, done completion) {
	st := r.nextStamp()
	ks := r.keys.at(key)

	pw := r.newPending(key, st, done)
	pw.scope, pw.txn = scope, txn
	pw.cAcks = r.followers()

	r.vis.onStrongWriteLaunch(r, ks, key, st, txn)
	r.startStrongWrite(pw)
}

// newPending books a pending write for (key, st), expecting a persistency
// ACK from every follower; done is the client's completion.
func (r *Replica) newPending(key uint64, st Stamp, done completion) *pendingWrite {
	pw := r.arena.pws.Get(recordChunk)
	pw.key, pw.stamp, pw.pAcks, pw.done = key, st, r.followers(), done
	r.pending[st] = pw
	return pw
}

// dropPending ends a pending write's bookkeeping and recycles its record;
// pw must not be used afterwards.
func (r *Replica) dropPending(pw *pendingWrite) {
	delete(r.pending, pw.stamp)
	*pw = pendingWrite{}
	r.arena.pws.Put(pw)
}

// launchStrongWrite makes the update visible locally, broadcasts the INV,
// arranges local durability, and applies the model's write-completion rule.
// It runs at once, or under Strict persistency once the local persist
// completed.
func (r *Replica) launchStrongWrite(pw *pendingWrite) {
	key, st := pw.key, pw.stamp
	r.applyVisible(key, st)
	pw.broadcastAt = r.eng.Now()
	r.propagate(payload{Kind: MsgINV, Key: key, Stamp: st, Scope: pw.scope, Txn: pw.txn})
	if r.p.Groups > 1 {
		// Hybrid consistency: the strong protocol covered the local
		// group; the remaining groups learn eventually via lazy UPDs.
		r.after(r.p.EventualLag, cont{kind: contRemoteGroups, arg: pw.scope}, key, st)
	}
	r.startLocalDurability(pw)

	// Early write completion: Read-Enforced and Transactional consistency
	// acknowledge the client as soon as the local update and the INV
	// broadcast are out — unless Strict persistency forces the write to
	// wait for persists everywhere.
	if r.rules.EarlyAck {
		pw.early = true
		r.completeWrite(pw)
	}
	if pw.cAcks == 0 { // single-node cluster: no followers to wait for
		r.consistencyAcked(pw)
	}
}

// releaseTxnWriteLock ends a transactional write's conflict-detection
// window once the write has been applied everywhere.
func (r *Replica) releaseTxnWriteLock(key uint64) {
	r.keys.at(key).lockTxn = 0
}

// onINV handles an invalidation at a follower: the visibility policy does
// its bookkeeping (read-stall tracking or transactional conflict
// detection), then applyInv orders visibility, persistence, and the ACK
// flavor.
func (r *Replica) onINV(from int, p *payload) {
	if p.Chain {
		r.forwardChain(p)
		from = p.Stamp.Node() // ACKs go to the write's coordinator
	}
	ks := r.keys.at(p.Key)
	if !r.vis.onInvReceive(r, ks, from, p) {
		return // transactional write-write conflict: NACKed
	}
	r.applyInv(from, p)
}

// onACK handles a combined consistency+persistency acknowledgment.
func (r *Replica) onACK(from int, p *payload) {
	if p.Stamp.IsZero() && p.Txn != 0 {
		r.onTxnEventAck(p.Txn)
		return
	}
	pw := r.pending[p.Stamp]
	if pw == nil {
		return
	}
	pw.cAcks--
	pw.pAcks--
	if pw.cAcks == 0 {
		r.consistencyAcked(pw)
	}
}

// onACKc handles a consistency-only acknowledgment.
func (r *Replica) onACKc(p *payload) {
	pw := r.pending[p.Stamp]
	if pw == nil {
		return
	}
	pw.cAcks--
	if pw.cAcks == 0 {
		r.consistencyAcked(pw)
	}
}

// onACKp handles a persistency-only acknowledgment (per-write or per-scope).
func (r *Replica) onACKp(p *payload) {
	if p.Stamp.IsZero() && p.Scope != 0 {
		r.onScopeAck(p.Scope)
		return
	}
	pw := r.pending[p.Stamp]
	if pw == nil {
		return
	}
	pw.pAcks--
	r.onPersistAck(pw)
}

// validate broadcasts the consistency VAL and clears local transient state.
func (r *Replica) validate(pw *pendingWrite, kind MsgKind) {
	r.broadcast(payload{Kind: kind, Key: pw.key, Stamp: pw.stamp})
	ks := r.keys.at(pw.key)
	r.arena.stamps.remove(&ks.transC, pw.stamp)
	if !r.rules.SplitAcks {
		r.wake(&ks.consWait)
	}
}

// validateP broadcasts VAL_p and clears both transient sets locally.
func (r *Replica) validateP(pw *pendingWrite) {
	r.broadcast(payload{Kind: MsgVALp, Key: pw.key, Stamp: pw.stamp})
	ks := r.keys.at(pw.key)
	r.arena.stamps.remove(&ks.transC, pw.stamp)
	r.arena.stamps.remove(&ks.transP, pw.stamp)
	r.wake(&ks.consWait)
}

// completeWrite completes the client's write exactly once and records
// coordinator-side write-stall metrics.
func (r *Replica) completeWrite(pw *pendingWrite) {
	if pw.done.c == nil {
		return
	}
	if r.tracer != nil {
		r.trace("WR k%d complete", pw.key)
	}
	done := pw.done
	pw.done = completion{}
	if !pw.early && pw.broadcastAt > 0 {
		r.M.WriteStalls++
		r.M.WriteStallTime += r.eng.Now() - pw.broadcastAt
	}
	done.fire(uint64(pw.stamp))
}

// onVAL handles VAL / VAL_c at a follower: the write is validated for
// consistency; stalled reads may resume (unless VAL_p is still required).
// A VAL carrying only a transaction id is the commit notification.
func (r *Replica) onVAL(p *payload) {
	if p.Txn != 0 && p.Stamp.IsZero() {
		r.commitVAL(p.Txn)
		return
	}
	ks := r.keys.at(p.Key)
	r.arena.stamps.remove(&ks.transC, p.Stamp)
	if ks.transC == 0 && (!r.rules.SplitAcks || ks.transP == 0) {
		r.wake(&ks.consWait)
	}
}

// onVALp handles VAL_p at a follower: persistence validated everywhere.
func (r *Replica) onVALp(p *payload) {
	if p.Scope != 0 {
		return // scope VAL_p carries no per-key state
	}
	ks := r.keys.at(p.Key)
	r.arena.stamps.remove(&ks.transC, p.Stamp)
	r.arena.stamps.remove(&ks.transP, p.Stamp)
	if ks.transC == 0 && ks.transP == 0 {
		r.wake(&ks.consWait)
	}
}

// ---------------------------------------------------------------------------
// Weak-consistency writes (Causal, Eventual)
// ---------------------------------------------------------------------------

// weakWrite implements the UPD-based write paths of Figure 2 (e-h): the
// visibility policy decides the UPD's history and propagation timing,
// persistWeakWrite the local persist and the completion point.
func (r *Replica) weakWrite(key uint64, scope uint64, done completion) {
	st := r.nextStamp()

	var pw *pendingWrite
	if r.rules.PersistsBeforeVisible {
		// Strict persistency stalls the write until persisted everywhere,
		// even under weak consistency (Section 8.2).
		pw = r.newPending(key, st, done)
		pw.broadcastAt = r.eng.Now()
	}

	hist := r.vis.causalHistory(r) // cauhist snapshot for Causal consistency

	r.applyVisible(key, st)

	upd := payload{Kind: MsgUPD, Key: key, Stamp: st, Scope: scope, Cauhist: hist}
	r.vis.propagateWeak(r, upd)

	if !r.persistWeakWrite(key, st, scope) {
		return // client completion arrives via ACK_p collection
	}
	done.fire(uint64(st))
}

// selfApplyCausal advances the local applied vector for one of the
// coordinator's own writes and drains any updates it unblocks.
func (r *Replica) selfApplyCausal() {
	r.vis.selfApply(r)
}

// maybeFinishWeakStrictWrite completes a weak-consistency write under Strict
// persistency once every replica (and the local node) persisted it.
func (r *Replica) maybeFinishWeakStrictWrite(pw *pendingWrite) {
	if pw.pAcks == 0 && pw.localPersist && pw.done.c != nil {
		done, st := pw.done, pw.stamp
		r.M.WriteStalls++
		r.M.WriteStallTime += r.eng.Now() - pw.broadcastAt
		r.dropPending(pw)
		done.fire(uint64(st))
	}
}

// onUPD handles a lazy update at a follower.
func (r *Replica) onUPD(from int, p *payload) {
	if p.Chain {
		r.forwardChain(p)
		from = p.Stamp.Node()
	}
	r.vis.onUpdate(r, from, p)
}
