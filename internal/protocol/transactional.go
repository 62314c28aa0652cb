package protocol

// transactionalVis implements Transactional consistency: updates become
// visible with respect to all nodes at transaction end (Table 2).
// Transactional writes run the INV/ACK broadcast for conflict detection but
// validate collectively at ENDX; reads never stall — they serve the latest
// committed version (the snapshot flavor of Section 5.4's conflict
// actions). The transaction lifecycle plumbing (INITX/ENDX/NACK/ABORTX,
// squash and retry) lives in txn.go.
type transactionalVis struct{}

// dispatchWrite routes in-transaction writes through conflict detection;
// writes outside any transaction take the plain strong path.
func (transactionalVis) dispatchWrite(r *Replica, key, scope, txn uint64, done completion) {
	if txn != 0 {
		r.txnWriteAttempt(key, scope, txn, done)
		return
	}
	r.strongWrite(key, scope, txn, done)
}

// onStrongWriteLaunch grows the transaction's write set; per-key transient
// tracking is not needed because reads serve committed versions.
func (transactionalVis) onStrongWriteLaunch(r *Replica, ks *keyState, key uint64, st Stamp, txn uint64) {
	if txn == 0 {
		return
	}
	if tx := r.txns[txn]; tx != nil {
		r.addTxnItem(&tx.writeKeys, key, st)
	}
}

// onInvReceive detects cross-node write-write conflicts: this node may have
// its own in-flight transactional write to the key. Wound-wait tie-break:
// the younger transaction (larger id) is squashed, so exactly one side
// dies.
func (transactionalVis) onInvReceive(r *Replica, ks *keyState, from int, p *payload) bool {
	if p.Txn == 0 {
		return true
	}
	if ks.lockTxn != 0 && ks.lockTxn != p.Txn && p.Txn > ks.lockTxn {
		r.send(from, payload{Kind: MsgNACK, Stamp: p.Stamp, Txn: p.Txn})
		return false
	}
	if tx := r.txns[p.Txn]; tx != nil {
		r.addTxnItem(&tx.writeKeys, p.Key, p.Stamp)
	}
	return true
}

// The weak-write hooks are unreachable (transactional writes never take the
// UPD path); lazy UPDs from remote hybrid groups apply last-writer-wins.
func (transactionalVis) causalHistory(r *Replica) []uint64     { return nil }
func (transactionalVis) propagateWeak(r *Replica, upd payload) { r.propagate(upd) }

func (transactionalVis) onUpdate(r *Replica, from int, p *payload) {
	r.applyVisible(p.Key, p.Stamp)
	r.dur.onFollowerUpdate(r, from, p)
}

func (transactionalVis) selfApply(r *Replica) {}
