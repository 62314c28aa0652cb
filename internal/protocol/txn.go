package protocol

import "repro/internal/sim"

// txnStatus tracks a transaction's lifecycle at a node.
type txnStatus int

const (
	txnActive txnStatus = iota
	txnCommitting
	txnCommitted
	txnAborted
)

// txnState is a transaction's record at one node — at its coordinator it
// also carries the client's completions; at followers only locks and deferred
// persists. Records recycle through Arena.txnRecs, keeping their item lists
// (see addTxnItem); continuations name a transaction by id and look it up in
// Replica.txns, never by pointer.
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

	// The coordinator's client: begin completes with the id once INITX is
	// acknowledged everywhere (initSent), and again with 0 if a squash comes
	// before ENDX; end completes the ENDX request.
	begin, end completion
	initSent   bool

	sim.Link[txnState]
}

// newTxn registers a fresh active record for transaction id, coordinated by
// the replica at rank coord.
func (r *Replica) newTxn(id uint64, coord int) *txnState {
	tx := r.arena.txnRecs.Get(recordChunk)
	tx.id, tx.coord, tx.status = id, coord, txnActive
	r.txns[id] = tx
	return tx
}

// dropTxn forgets a finished transaction and recycles its record; tx must
// not be used afterwards.
func (r *Replica) dropTxn(tx *txnState) {
	delete(r.txns, tx.id)
	*tx = txnState{
		writeKeys:       tx.writeKeys[:0],
		pendingPersists: tx.pendingPersists[:0],
	}
	r.arena.txnRecs.Put(tx)
}

// addTxnItem appends (key, st) to one of a transaction record's item lists.
// The list's first item carves it at XactionSize — an attempt locks and
// defers at most one item per request — so it never grows by doubling, and a
// list the binding never fills is never carved.
func (r *Replica) addTxnItem(list *[]persistItem, key uint64, st Stamp) {
	if cap(*list) == 0 {
		*list = sim.CarveList(&r.arena.items, r.p.XactionSize, recordChunk)
	}
	*list = append(*list, persistItem{key: key, stamp: st})
}

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
	tk := r.keys.txnAt(key)
	if tk.lockTxn != 0 && tk.lockTxn != txn {
		tx.conflicted = true
		r.squash(tx)
		return
	}
	tk.lockTxn = txn
	r.strongWrite(key, scope, txn, done)
}

// addWriteKey grows transaction txn's write set at this replica with a write
// it coordinates or follows.
func (r *Replica) addWriteKey(txn, key uint64, st Stamp) {
	if tx := r.txns[txn]; tx != nil {
		r.addTxnItem(&tx.writeKeys, key, st)
	}
}

// acceptTxnInv detects a cross-node write-write conflict for a
// transactional INV: this node may have its own in-flight transactional
// write to the key. Wound-wait tie-break: the younger transaction (larger
// id) is NACKed and squashed, so exactly one side dies. An accepted INV
// joins the transaction's write set here.
func (r *Replica) acceptTxnInv(from int, p *payload) bool {
	if lock := r.keys.txnAt(p.Key).lockTxn; lock != 0 && lock != p.Txn && p.Txn > lock {
		r.send(from, payload{Kind: MsgNACK, Stamp: p.Stamp, Txn: p.Txn})
		return false
	}
	r.addWriteKey(p.Txn, p.Key, p.Stamp)
	return true
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
		r.persist(key, st, cont{})
		return
	}
	r.addTxnItem(&tx.pendingPersists, key, st)
}

// initTxn runs ClientInitTxn once the request's worker time has elapsed.
func (r *Replica) initTxn(done completion) {
	r.txnSeq++
	id := uint64(r.id+1)<<32 | r.txnSeq
	tx := r.newTxn(id, r.id)
	tx.initAcks = r.followers()
	tx.begin = done
	r.M.TxnStarted++
	r.broadcast(payload{Kind: MsgINITX, Txn: id})
	r.atTxnBoundary(id, cont{kind: contTxnInit, arg: id})
	r.maybeInitDone(tx)
}

// atTxnBoundary runs then once transaction txn's begin event is durable
// under Synchronous/Strict persistency, at once under the others.
func (r *Replica) atTxnBoundary(txn uint64, then cont) {
	if r.rules.PersistsInAckPath {
		r.persistEvent(txnAddr(txn), then)
	} else {
		r.run(then, 0, 0)
	}
}

func (r *Replica) maybeInitDone(tx *txnState) {
	if tx.localInit && tx.initAcks == 0 && !tx.initSent {
		tx.initSent = true
		tx.begin.fire(tx.id)
	}
}

// onINITX registers a remote transaction at a follower and acknowledges,
// persisting the event first under Synchronous/Strict persistency.
func (r *Replica) onINITX(from int, p *payload) {
	r.newTxn(p.Txn, from)
	r.atTxnBoundary(p.Txn, ackTo(MsgACK, from, p.Txn))
}

// endTxn runs ClientEndTxn once the request's worker time has elapsed.
func (r *Replica) endTxn(txn uint64, done completion) {
	tx := r.txns[txn]
	if tx == nil || tx.status != txnActive {
		done.fire(0)
		return
	}
	tx.status = txnCommitting
	tx.end = done
	tx.endAcks = r.followers()
	r.broadcast(payload{Kind: MsgENDX, Txn: txn})
	r.flushTxnPersists(tx, cont{kind: contTxnEnd, arg: txn})
	if r.txns[txn] == tx {
		r.maybeCommit(tx)
	}
}

// flushTxnPersists runs then once the persists the transaction deferred to
// its end are durable (Synchronous/Strict), at once under the others.
func (r *Replica) flushTxnPersists(tx *txnState, then cont) {
	if !r.rules.PersistsInAckPath {
		r.run(then, 0, 0)
		return
	}
	items := tx.pendingPersists
	tx.pendingPersists = items[:0]
	r.persistItems(items, then)
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
	done := tx.end
	r.dropTxn(tx)
	done.fire(1)
}

// onENDX completes a transaction's updates at a follower — including the
// deferred persists under Synchronous/Strict persistency — then ACKs.
func (r *Replica) onENDX(from int, p *payload) {
	tx := r.txns[p.Txn]
	ack := ackTo(MsgACK, from, p.Txn)
	if tx == nil {
		r.run(ack, 0, 0)
		return
	}
	tx.status = txnCommitting
	r.flushTxnPersists(tx, ack)
}

// onTxnEventAck routes an INITX or ENDX acknowledgment at the coordinator.
func (r *Replica) onTxnEventAck(txn uint64) {
	tx := r.txns[txn]
	if tx == nil || tx.coord != r.id {
		return
	}
	if !tx.initSent {
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
	r.commitTxnVersions(tx)
	r.clearTxnLocks(tx)
	r.dropTxn(tx)
}

// commitTxnVersions promotes the transaction's writes to committed-visible.
func (r *Replica) commitTxnVersions(tx *txnState) {
	for _, w := range tx.writeKeys {
		if tk := r.keys.txnAt(w.key); w.stamp > tk.committed {
			tk.committed = w.stamp
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
	end, begin := tx.end, tx.begin
	r.dropTxn(tx)
	switch {
	case end.c != nil:
		end.fire(0)
	case begin.c != nil:
		begin.fire(0)
	}
}

// onNACK handles a follower-reported conflict for one of our transactions.
// The follower never acknowledges the write it NACKed (p.Stamp), so that
// write can never complete: its pending record goes now. The transaction's
// other writes keep theirs, and their rounds run to the end.
func (r *Replica) onNACK(p *payload) {
	if pw := r.pending[p.Stamp]; pw != nil {
		r.dropPending(pw)
	}
	tx := r.txns[p.Txn]
	if tx != nil && tx.coord == r.id {
		r.squash(tx)
	}
}

// onABORTX clears a squashed transaction's state at a follower.
func (r *Replica) onABORTX(p *payload) {
	tx := r.txns[p.Txn]
	if tx == nil {
		return
	}
	r.clearTxnLocks(tx)
	r.dropTxn(tx)
}

// clearTxnLocks releases any conflict-window locks this node still holds
// for tx (writes whose propagation had not finished when the transaction
// ended or aborted).
func (r *Replica) clearTxnLocks(tx *txnState) {
	for _, w := range tx.writeKeys {
		if tk := r.keys.txnAt(w.key); tk.lockTxn == tx.id {
			tk.lockTxn = 0
		}
	}
}
