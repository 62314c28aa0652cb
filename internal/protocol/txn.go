package protocol

// txnStatus tracks a transaction's lifecycle at a node.
type txnStatus int

const (
	txnActive txnStatus = iota
	txnCommitting
	txnCommitted
	txnAborted
)

// txnState is a transaction's record at one node — at its coordinator it
// also carries the client callbacks; at followers only locks and deferred
// persists.
type txnState struct {
	id     uint64
	coord  int
	status txnStatus

	writeKeys       []persistItem // keys this node locked, with their stamps
	pendingPersists []persistItem
	conflicted      bool // hit another transaction's lock at least once

	initAcks  int
	endAcks   int
	localInit bool
	localEnd  bool

	initDone func(txn uint64)
	endDone  func(committed bool)
	onAbort  func()
}

// txnAddr maps a transaction id onto an NVM address for event persists.
func txnAddr(id uint64) uint64 { return id * 0x9e3779b97f4a7c15 }

// deferTxnPersist queues a write's persist until the transaction's ENDX
// (Figure 4: under Synchronous persistency, transactional writes ACK on the
// volatile update and bunch their persists at transaction end).
func (r *Replica) deferTxnPersist(txn uint64, key uint64, st Stamp) {
	tx := r.txns[txn]
	if tx == nil || tx.status == txnAborted {
		// Unknown or aborted transaction: persist immediately, keeping the
		// NVM image conservative.
		r.persist(key, st, nil)
		return
	}
	tx.pendingPersists = append(tx.pendingPersists, persistItem{key: key, stamp: st})
}

// persistsAtTxnBoundaries reports whether the persistency model persists
// transactional state at INITX/ENDX (Synchronous and Strict do; the others
// have their own durability schedule).
func (r *Replica) persistsAtTxnBoundaries() bool {
	return r.dur.persistsAtTxnBoundaries()
}

// ClientInitTxn begins a transaction at this node. onAbort fires if the
// transaction is later squashed by a conflict; done delivers the new
// transaction id once every replica has acknowledged INITX (Figure 4).
func (r *Replica) ClientInitTxn(onAbort func(), done func(txn uint64)) {
	r.work.Acquire(r.p.RequestCompute, func() {
		r.txnSeq++
		id := uint64(r.id+1)<<32 | r.txnSeq
		tx := &txnState{
			id:       id,
			coord:    r.id,
			status:   txnActive,
			initAcks: r.followers(),
			initDone: done,
			onAbort:  onAbort,
		}
		r.txns[id] = tx
		r.M.TxnStarted++
		r.broadcast(payload{Kind: MsgINITX, Txn: id})
		finishLocal := func() {
			tx.localInit = true
			r.maybeInitDone(tx)
		}
		if r.persistsAtTxnBoundaries() {
			r.persistEvent(txnAddr(id), finishLocal)
		} else {
			finishLocal()
		}
		r.maybeInitDone(tx)
	})
}

func (r *Replica) maybeInitDone(tx *txnState) {
	if tx.localInit && tx.initAcks == 0 && tx.initDone != nil {
		done := tx.initDone
		tx.initDone = nil
		done(tx.id)
	}
}

// onINITX registers a remote transaction at a follower and acknowledges,
// persisting the event first under Synchronous/Strict persistency.
func (r *Replica) onINITX(from int, p payload) {
	r.txns[p.Txn] = &txnState{id: p.Txn, coord: from, status: txnActive}
	ack := func() { r.send(from, payload{Kind: MsgACK, Txn: p.Txn}) }
	if r.persistsAtTxnBoundaries() {
		r.persistEvent(txnAddr(p.Txn), ack)
	} else {
		ack()
	}
}

// ClientEndTxn requests commit. done reports whether the transaction
// committed; false means it was squashed (or unknown) and the client should
// retry.
func (r *Replica) ClientEndTxn(txn uint64, done func(committed bool)) {
	r.work.Acquire(r.p.RequestCompute, func() {
		tx := r.txns[txn]
		if tx == nil || tx.status != txnActive {
			done(false)
			return
		}
		tx.status = txnCommitting
		tx.endDone = done
		tx.endAcks = r.followers()
		r.broadcast(payload{Kind: MsgENDX, Txn: txn})
		finishLocal := func() {
			tx.localEnd = true
			r.maybeCommit(tx)
		}
		if r.persistsAtTxnBoundaries() {
			items := tx.pendingPersists
			tx.pendingPersists = nil
			r.persistItems(items, finishLocal)
		} else {
			finishLocal()
		}
		r.maybeCommit(tx)
	})
}

func (r *Replica) maybeCommit(tx *txnState) {
	if tx.status != txnCommitting || !tx.localEnd || tx.endAcks != 0 {
		return
	}
	tx.status = txnCommitted
	r.M.TxnCommitted++
	if tx.conflicted {
		r.M.TxnConflicted++
	}
	r.broadcast(payload{Kind: MsgVAL, Txn: tx.id})
	r.commitTxnVersions(tx)
	r.clearTxnLocks(tx)
	delete(r.txns, tx.id)
	if tx.endDone != nil {
		done := tx.endDone
		tx.endDone = nil
		done(true)
	}
}

// onENDX completes a transaction's updates at a follower — including the
// deferred persists under Synchronous/Strict persistency — then ACKs.
func (r *Replica) onENDX(from int, p payload) {
	tx := r.txns[p.Txn]
	ack := func() { r.send(from, payload{Kind: MsgACK, Txn: p.Txn}) }
	if tx == nil {
		ack()
		return
	}
	tx.status = txnCommitting
	if r.persistsAtTxnBoundaries() {
		items := tx.pendingPersists
		tx.pendingPersists = nil
		r.persistItems(items, ack)
	} else {
		ack()
	}
}

// onTxnEventAck routes an INITX or ENDX acknowledgment at the coordinator.
func (r *Replica) onTxnEventAck(txn uint64) {
	tx := r.txns[txn]
	if tx == nil || tx.coord != r.id {
		return
	}
	if tx.initDone != nil {
		tx.initAcks--
		r.maybeInitDone(tx)
		return
	}
	if tx.status == txnCommitting {
		tx.endAcks--
		r.maybeCommit(tx)
	}
}

// commitVAL handles the transaction-closing VAL at a follower: all locks
// release and the record is dropped.
func (r *Replica) commitVAL(txn uint64) {
	tx := r.txns[txn]
	if tx == nil {
		return
	}
	tx.status = txnCommitted
	r.commitTxnVersions(tx)
	r.clearTxnLocks(tx)
	delete(r.txns, txn)
}

// commitTxnVersions promotes the transaction's writes to committed-visible.
func (r *Replica) commitTxnVersions(tx *txnState) {
	for _, w := range tx.writeKeys {
		if ks := r.keys.at(w.key); w.stamp > ks.committed {
			ks.committed = w.stamp
		}
	}
}

// squash aborts a transaction at its coordinator: Section 5.4's conflict
// resolution (we implement the squash flavor; the client retries).
func (r *Replica) squash(tx *txnState) {
	if tx.status != txnActive && tx.status != txnCommitting {
		return
	}
	tx.status = txnAborted
	r.M.TxnSquashed++
	r.M.TxnConflicted++
	r.broadcast(payload{Kind: MsgABORTX, Txn: tx.id})
	r.clearTxnLocks(tx)
	tx.pendingPersists = nil
	delete(r.txns, tx.id)
	switch {
	case tx.endDone != nil:
		done := tx.endDone
		tx.endDone = nil
		done(false)
	case tx.onAbort != nil:
		abort := tx.onAbort
		tx.onAbort = nil
		abort()
	}
}

// onNACK handles a follower-reported conflict for one of our transactions.
func (r *Replica) onNACK(p payload) {
	tx := r.txns[p.Txn]
	if tx != nil && tx.coord == r.id {
		r.squash(tx)
	}
}

// onABORTX clears a squashed transaction's state at a follower.
func (r *Replica) onABORTX(p payload) {
	tx := r.txns[p.Txn]
	if tx == nil {
		return
	}
	tx.status = txnAborted
	r.clearTxnLocks(tx)
	tx.pendingPersists = nil
	delete(r.txns, p.Txn)
}

// clearTxnLocks releases any conflict-window locks this node still holds
// for tx (writes whose propagation had not finished when the transaction
// ended or aborted).
func (r *Replica) clearTxnLocks(tx *txnState) {
	for _, w := range tx.writeKeys {
		if r.keys.at(w.key).lockTxn == tx.id {
			r.keys.at(w.key).lockTxn = 0
		}
	}
	tx.writeKeys = nil
}

// persistItems persists a batch and invokes done when all are durable.
func (r *Replica) persistItems(items []persistItem, done func()) {
	if len(items) == 0 {
		done()
		return
	}
	remaining := len(items)
	for _, it := range items {
		r.persist(it.key, it.stamp, func() {
			remaining--
			if remaining == 0 {
				done()
			}
		})
	}
}
