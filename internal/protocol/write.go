package protocol

// dispatchWrite routes a client write, or the write half of an RMW, onto
// its binding's write path: lazy UPDs under weak consistency, conflict
// detection for a write inside a transaction (only Transactional consistency
// opens one), and the INV/ACK/VAL round for every other strong write.
func (r *Replica) dispatchWrite(key, scope, txn uint64, done completion) {
	switch {
	case !r.rules.InvAckVal:
		r.weakWrite(key, scope, done)
	case txn != 0:
		r.txnWriteAttempt(key, scope, txn, done)
	default:
		r.strongWrite(key, scope, txn, done)
	}
}

// strongWrite starts the INV/ACK/VAL broadcast round for Linearizable,
// Read-Enforced, and Transactional consistency (Figures 2-5): it books the
// pending write, records its read-stall state or grows its transaction's
// write set, and starts it (startStrongWrite, which gates the broadcast on a
// persist under Strict persistency).
func (r *Replica) strongWrite(key uint64, scope, txn uint64, done completion) {
	st := r.nextStamp()
	pw := r.newPending(key, st, done)
	pw.scope, pw.txn = scope, txn
	pw.cAcks = r.followers()

	if r.rules.ReadsStallOnTransient {
		r.markTransient(key, st)
	}
	if txn != 0 {
		r.addWriteKey(txn, key, st)
	}
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
	if r.hybrid() {
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
	r.keys.txnAt(key).lockTxn = 0
}

// markTransient marks a strong write consistency-transient at this replica,
// so reads to the key stall until its VAL; under split ACKs it also stays
// persistency-transient until its VAL_p (Figure 3).
func (r *Replica) markTransient(key uint64, st Stamp) {
	b := r.busyOf(r.keys.at(key))
	r.arena.stamps.add(&b.transC, st)
	if r.rules.SplitAcks {
		r.arena.stamps.add(&b.transP, st)
	}
}

// onINV handles an invalidation at a follower: it mirrors the coordinator's
// read-stall state or runs transactional conflict detection, then applyInv
// orders visibility, persistence, and the ACK flavor.
func (r *Replica) onINV(from int, p *payload) {
	if p.Chain {
		r.forwardChain(p)
		from = p.Stamp.Node() // ACKs go to the write's coordinator
	}
	if r.rules.ReadsStallOnTransient {
		r.markTransient(p.Key, p.Stamp)
	}
	if p.Txn != 0 && !r.acceptTxnInv(from, p) {
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
	r.validated(pw.key, pw.stamp, false, true)
}

// validateP broadcasts VAL_p and clears both transient sets locally.
func (r *Replica) validateP(pw *pendingWrite) {
	r.broadcast(payload{Kind: MsgVALp, Key: pw.key, Stamp: pw.stamp})
	r.validated(pw.key, pw.stamp, true, true)
}

// completeWrite completes the client's write exactly once and records
// coordinator-side write-stall metrics.
func (r *Replica) completeWrite(pw *pendingWrite) {
	if pw.done.c == nil {
		return
	}
	if r.tracer != nil {
		r.emit(Event{Kind: EvWriteDone, Key: pw.key})
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
	r.validated(p.Key, p.Stamp, false, false)
}

// onVALp handles VAL_p at a follower: persistence validated everywhere.
func (r *Replica) onVALp(p *payload) {
	if p.Scope != 0 {
		return // scope VAL_p carries no per-key state
	}
	r.validated(p.Key, p.Stamp, true, false)
}

// validated clears the validated write st from key's transient sets —
// transC on a VAL or VAL_c, transP too on a VAL_p — and resumes the key's
// stalled reads, which re-check the sets: at the coordinator, which sends
// the validation, on every VAL that is not split from its VAL_p; at a
// follower once no write keeps the key transient. An idle key (or a stray
// key never touched) has nothing transient and nothing stalled.
func (r *Replica) validated(key uint64, st Stamp, valP, coordinator bool) {
	ks := r.keys.find(key)
	if ks == nil || ks.busy == 0 {
		return
	}
	b := r.arena.busy.At(ks.busy)
	r.arena.stamps.remove(&b.transC, st)
	if valP {
		r.arena.stamps.remove(&b.transP, st)
	}
	wake := b.transC == 0 && (!r.rules.SplitAcks || b.transP == 0)
	if coordinator {
		wake = valP || !r.rules.SplitAcks
	}
	if wake {
		r.wake(&b.consWait)
	}
	r.settle(ks)
}

// ---------------------------------------------------------------------------
// Weak-consistency writes (Causal, Eventual)
// ---------------------------------------------------------------------------

// weakWrite implements the UPD-based write paths of Figure 2 (e-h): a
// Causal UPD carries the write's cauhist and goes out at once, an Eventual
// one goes out after the lazy delay (Figure 2g); persistWeakWrite arranges
// the local persist and the completion point.
func (r *Replica) weakWrite(key uint64, scope uint64, done completion) {
	st := r.nextStamp()

	var pw *pendingWrite
	if r.rules.PersistsBeforeVisible {
		// Strict persistency stalls the write until persisted everywhere,
		// even under weak consistency (Section 8.2).
		pw = r.newPending(key, st, done)
		pw.broadcastAt = r.eng.Now()
	}

	var hist []uint64
	if r.rules.CausalOrder {
		hist = r.causalHistory()
	}

	r.applyVisible(key, st)

	if r.rules.CausalOrder {
		r.propagate(payload{Kind: MsgUPD, Key: key, Stamp: st, Scope: scope, Cauhist: hist})
	} else {
		r.after(r.p.EventualLag, cont{kind: contPropagate, arg: scope}, key, st)
	}

	if !r.persistWeakWrite(key, st, scope) {
		return // client completion arrives via ACK_p collection
	}
	done.fire(uint64(st))
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

// onUPD handles a lazy update at a follower: a Causal one goes through the
// reorder buffer; any other (Eventual consistency, and a remote hybrid
// group's update at a strong replica) applies in arrival order,
// last-writer-wins.
func (r *Replica) onUPD(from int, p *payload) {
	if p.Chain {
		r.forwardChain(p)
		from = p.Stamp.Node()
	}
	if r.rules.CausalOrder {
		r.causalDeliver(p)
		return
	}
	r.applyVisible(p.Key, p.Stamp)
	r.persistFollowerUpdate(from, p)
}
