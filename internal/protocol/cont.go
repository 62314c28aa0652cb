package protocol

// Continuations as data. Whatever must happen when a persist, a device write
// or a protocol delay completes is a cont — a tagged record of a few words —
// not a func(): the hot rounds (persist-then-ACK, persist-gated causal apply,
// lazy persist, lazy propagation, transaction and scope fan-in) would
// otherwise heap-allocate one closure per step per replica. A cont waits in a
// slab of the replica's Arena (the per-key persist FIFO, the fan-in slots, or
// the delayed-action records below) and Replica.run executes it with one
// switch.
// Records that a cont refers to are named by what the protocol already keys
// them on — a write by its stamp, a transaction or scope by its id — and
// looked up when it runs, so a continuation that outlives its record (a
// transaction squashed while its persist was in flight) finds nothing and
// does nothing, and recycled records are never reached through a stale
// pointer.

type contKind uint8

const (
	contNone contKind = iota

	// contAck sends {msg, Stamp: st, Txn: arg} to node: the persist-then-ACK
	// of Figures 2-4, and the INITX/ENDX acknowledgment (st zero).
	contAck
	// contApplyAck makes (key, st) visible, then ACKs node with Txn arg:
	// Strict's persist-before-visibility at a follower.
	contApplyAck
	// contAdvance advances the applied vector for writer node; contAdvanceAck
	// also reports the durable copy back to it (Strict).
	contAdvance
	contAdvanceAck
	// contSelfApply advances causal bookkeeping for the coordinator's own
	// write at its durability point.
	contSelfApply
	// contLocalPersist marks the pending write stamped st locally persisted
	// and continues its round (onLocalPersist).
	contLocalPersist
	// contFanIn counts one item of persistItems batch arg down.
	contFanIn
	// contTxnInit / contTxnEnd finish the coordinator's local half of
	// transaction arg's INITX / ENDX.
	contTxnInit
	contTxnEnd
	// contScopeLocal finishes the coordinator's local flush of scope arg;
	// contScopeAck reports a follower's flush of it to node.
	contScopeLocal
	contScopeAck
	// contPersist persists (key, st) — the body of a lazy persist.
	contPersist
	// contPropagate ships the UPD for (key, st, Scope arg) to the followers,
	// contRemoteGroups to the other hybrid groups — the bodies of the lazy
	// propagation delays.
	contPropagate
	contRemoteGroups
	// contFunc calls fn. The escape slot is for cold callers only — tests,
	// recovery and ablation tooling — never for a per-operation path: a
	// closure per op is what the other kinds exist to avoid.
	contFunc
)

// cont is one continuation: a kind and its operands. The key and stamp a
// continuation acts on are not stored in it; they arrive from whatever it
// waited on (see run).
type cont struct {
	kind contKind
	msg  MsgKind // contAck: the acknowledgment flavor
	node int32   // peer rank: ACK target or applied-vector writer
	arg  uint64  // transaction, scope or fan-in id
	fn   func()  // contFunc only
}

func ackTo(msg MsgKind, node int, txn uint64) cont {
	return cont{kind: contAck, msg: msg, node: int32(node), arg: txn}
}

// run executes c for the item (key, st) it waited on: the persisted version
// for a persist continuation, the parked operands for a delayed action, zero
// for a batch or event persist.
func (r *Replica) run(c cont, key uint64, st Stamp) {
	switch c.kind {
	case contNone:
	case contAck:
		r.send(int(c.node), payload{Kind: c.msg, Stamp: st, Txn: c.arg})
	case contApplyAck:
		r.applyVisible(key, st)
		r.send(int(c.node), payload{Kind: MsgACK, Stamp: st, Txn: c.arg})
	case contAdvance:
		r.advanceApplied(int(c.node))
	case contAdvanceAck:
		r.advanceApplied(int(c.node))
		r.send(int(c.node), payload{Kind: MsgACKp, Stamp: st})
	case contSelfApply:
		r.selfApplyCausal()
	case contLocalPersist:
		if pw := r.pending[st]; pw != nil {
			pw.localPersist = true
			r.onLocalPersist(pw)
		}
	case contFanIn:
		f := r.arena.fanIns.At(int32(c.arg))
		if f.left--; f.left == 0 {
			r.run(r.arena.fanIns.Take(int32(c.arg)).then, 0, 0)
		}
	case contTxnInit:
		if tx := r.txns[c.arg]; tx != nil {
			tx.localInit = true
			r.maybeInitDone(tx)
		}
	case contTxnEnd:
		if tx := r.txns[c.arg]; tx != nil {
			tx.localEnd = true
			r.maybeCommit(tx)
		}
	case contScopeLocal:
		r.M.ScopePersists++
		if so, ok := r.scopeOps[c.arg]; ok {
			so.local = true
			r.scopeProgress(c.arg, so)
		}
	case contScopeAck:
		r.M.ScopePersists++
		r.send(int(c.node), payload{Kind: MsgACKp, Scope: c.arg})
	case contPersist:
		r.persist(key, st, cont{})
	case contPropagate:
		r.propagate(payload{Kind: MsgUPD, Key: key, Stamp: st, Scope: c.arg})
	case contRemoteGroups:
		r.broadcastRemoteGroups(payload{Kind: MsgUPD, Key: key, Stamp: st, Scope: c.arg})
	case contFunc:
		c.fn()
	}
}

// contRec holds a continuation with the item it will run for: waiting in a
// key's FIFO for the write-back that covers st, or parked across a device
// write or a delay.
type contRec struct {
	key uint64
	st  Stamp
	c   cont
}

// contDone runs parked continuations. It implements sim.Handler so delays and
// device writes that complete into a continuation schedule closure-free.
type contDone struct{ r *Replica }

func (cd *contDone) OnEvent(tok uint64) {
	rec := cd.r.arena.conts.Take(int32(tok))
	cd.r.run(rec.c, rec.key, rec.st)
}

// after runs c for (key, st) once delay has elapsed.
func (r *Replica) after(delay int64, c cont, key uint64, st Stamp) {
	r.eng.ScheduleEvent(delay, &r.contC, uint64(r.arena.conts.Put(contRec{key: key, st: st, c: c})))
}

// fanIn is one persistItems batch in flight: items still to persist, and the
// continuation of the batch.
type fanIn struct {
	left int
	then cont
}

// persistItems persists a batch; then runs once every item is durable.
func (r *Replica) persistItems(items []persistItem, then cont) {
	if len(items) == 0 {
		r.run(then, 0, 0)
		return
	}
	each := cont{kind: contFanIn, arg: uint64(r.arena.fanIns.Put(fanIn{left: len(items), then: then}))}
	for _, it := range items {
		r.persist(it.key, it.stamp, each)
	}
}

// persistEvent persists a non-key protocol event (transaction begin) to NVM.
func (r *Replica) persistEvent(addr uint64, then cont) {
	r.M.Persists++
	r.dev.WriteEvent(addr, &r.contC, uint64(r.arena.conts.Put(contRec{c: then})))
}
