package protocol

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Completer receives the outcome of a client call (Replica.Client*), the way
// a sim.Handler receives an event: a long-lived record — a cluster request, a
// closed-loop client — plus a token naming what completed, so a request
// carries no closure. v is the call's result:
//
//   - ClientRead, ClientWrite, ClientRMW: the version's Stamp;
//   - ClientScan: the number of keys found;
//   - ClientInitTxn: the new transaction id (never 0) once every replica
//     acknowledged INITX, and later 0 if the transaction is squashed before
//     ClientEndTxn was called;
//   - ClientEndTxn: 1 if the transaction committed, 0 if it was squashed;
//   - ClientPersistScope: 0.
type Completer interface {
	Complete(tok, v uint64)
}

// Func adapts a plain function to Completer; the token is ignored. It is for
// cold callers only — tests, the harness timelines: a closure per request is
// what Completer exists to avoid. A func value is pointer-shaped, so the
// boxing allocates nothing.
type Func func(v uint64)

// Complete calls f.
func (f Func) Complete(_, v uint64) { f(v) }

// completion is one pending outcome: the completer and the token its call
// passed. The zero value marks an outcome already delivered, or none owed.
type completion struct {
	c   Completer
	tok uint64
}

// fire delivers v.
func (d completion) fire(v uint64) { d.c.Complete(d.tok, v) }

// clientOp carries one client request through the replica: worker
// acquisition, service time, the operation's own steps, completion. The
// record is its own sim.Handler and sim.Holder, so no step of the pipeline
// schedules a closure, and it recycles through its arena's ops: the
// steady-state request path allocates nothing beyond what the protocol round
// itself books. Its 104 B keep the three small fields in one word at the end.
type clientOp struct {
	r *Replica

	key, scope, txn uint64
	service         int64 // worker service time before the operation runs
	done            completion

	// Read phase (read, scan, RMW): the worker held across it, when it first
	// ran (stall accounting), and the version served.
	hold  sim.Hold
	start int64
	ver   Stamp

	sim.Link[clientOp]

	kind    opKind
	stalled bool  // the read phase stalled (stall accounting)
	n       int32 // scan: maximum length, then the keys found
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opScan
	opRMW
	opInitTxn
	opEndTxn
	opPersistScope
)

// The events a clientOp schedules for itself, as typed-event arguments.
const (
	opRun      = iota // worker service time elapsed: run the operation
	opReadDone        // memory latency of the read phase elapsed
	opScanDone        // per-entry traversal cost of a scan elapsed
)

func (r *Replica) newOp(kind opKind) *clientOp {
	op := r.arena.ops.Get(recordChunk)
	op.r, op.kind = r, kind
	return op
}

// recycle returns op to its arena's ops, zeroed but for r.
func (op *clientOp) recycle() {
	r := op.r
	*op = clientOp{r: r}
	r.arena.ops.Put(op)
}

// opServiceTime is the worker time a data request costs before it touches
// the store: the request compute, scaled by the engine's per-op cost.
func (r *Replica) opServiceTime() int64 {
	return int64(float64(r.p.RequestCompute) * r.store.OpCost)
}

// Every Client* call takes a non-nil Completer and a token: at completion the
// replica calls c.Complete(tok, v) with the result Completer documents.

// ClientRead submits a read for key at this node. It completes with the stamp
// of the version returned (zero if the key has no visible or persisted value
// yet). txn is the surrounding transaction id (0 outside transactions);
// transactional reads never squash: they serve the latest committed version
// (readAttempt), the snapshot flavor of Section 5.4's conflict actions.
//
// The worker runs the read to completion: if the read stalls, its worker
// blocks with it (run-to-completion server threads). Under load, stalled
// reads therefore deplete the worker pool — the degradation that makes
// client count matter so much in Figure 7.
func (r *Replica) ClientRead(key uint64, txn uint64, c Completer, tok uint64) {
	op := r.newOp(opRead)
	op.key, op.done = key, completion{c, tok}
	op.service = r.opServiceTime()
	r.work.AcquireHold(op)
}

// ClientWrite submits a write for key at this node. scope tags the write's
// persistency scope (0 outside Scope persistency); txn its transaction (0
// outside Transactional consistency). It completes when the write completes
// under the model's rules, with the stamp assigned to the new version; under
// Transactional consistency a conflicting write squashes its transaction and
// never completes.
func (r *Replica) ClientWrite(key uint64, scope, txn uint64, c Completer, tok uint64) {
	op := r.newOp(opWrite)
	op.key, op.scope, op.txn, op.done = key, scope, txn, completion{c, tok}
	r.work.AcquireEvent(r.opServiceTime()+r.mem.WriteLatency(), op, opRun)
}

// ClientScan reads up to maxLen consecutive keys starting at start,
// completing with the number of keys found (see scanEngine for the order an
// ordered engine and a hash engine visit them in).
// The model's read-stall rules apply to the start key (a per-key stall check
// over a whole range would serialize scans on any write activity; real
// scan-supporting stores take the same snapshot-ish shortcut).
func (r *Replica) ClientScan(start uint64, maxLen int, c Completer, tok uint64) {
	if maxLen < 1 {
		maxLen = 1
	}
	op := r.newOp(opScan)
	// A scan finds at most Keys entries, and key slots are int32 already.
	op.key, op.n, op.done = start, int32(min(maxLen, math.MaxInt32)), completion{c, tok}
	op.service = r.opServiceTime()
	r.work.AcquireHold(op)
}

// ClientRMW performs an atomic-at-the-coordinator read-modify-write
// (YCSB workload F): the read obeys the model's read-stall rules, then the
// write follows the model's write path. It completes with the new version's
// stamp.
func (r *Replica) ClientRMW(key uint64, scope, txn uint64, c Completer, tok uint64) {
	op := r.newOp(opRMW)
	op.key, op.scope, op.txn, op.done = key, scope, txn, completion{c, tok}
	op.service = r.opServiceTime()
	r.work.AcquireHold(op)
}

// ClientInitTxn begins a transaction at this node. It completes with the new
// transaction id once every replica has acknowledged INITX (Figure 4), and
// completes a second time, with 0, if a conflict squashes the transaction
// before ClientEndTxn is called. Only a Transactional binding runs
// transactions; under another it panics.
func (r *Replica) ClientInitTxn(c Completer, tok uint64) {
	if r.txns == nil {
		panic(fmt.Sprintf("protocol: ClientInitTxn under %v: transactions need Transactional consistency", r.model))
	}
	op := r.newOp(opInitTxn)
	op.done = completion{c, tok}
	r.work.AcquireEvent(r.p.RequestCompute, op, opRun)
}

// ClientEndTxn requests commit. It completes with 1 if the transaction
// committed and 0 if it was squashed (or unknown), when the client should
// retry.
func (r *Replica) ClientEndTxn(txn uint64, c Completer, tok uint64) {
	op := r.newOp(opEndTxn)
	op.txn, op.done = txn, completion{c, tok}
	r.work.AcquireEvent(r.p.RequestCompute, op, opRun)
}

// ClientPersistScope executes the [PERSIST]s barrier of Figure 5: broadcast
// PERSIST, persist the local scope writes, collect every follower's ACK_p,
// broadcast VAL_p, and complete. The scopes of one session (the id's high 32
// bits) must close in increasing id order — a session issues its next barrier
// only after the previous one completed, so they do. Only a Scope binding
// has barriers; under another it panics.
func (r *Replica) ClientPersistScope(scope uint64, c Completer, tok uint64) {
	if r.scopeOps == nil {
		panic(fmt.Sprintf("protocol: ClientPersistScope under %v: barriers need Scope persistency", r.model))
	}
	op := r.newOp(opPersistScope)
	op.scope, op.done = scope, completion{c, tok}
	r.work.AcquireEvent(r.p.RequestCompute, op, opRun)
}

// OnHold runs once a read-side request has its worker: the worker stays held
// from here until the read phase completes.
func (op *clientOp) OnHold(h sim.Hold) {
	op.hold = h
	op.r.eng.ScheduleEvent(op.service, op, opRun)
}

// OnEvent advances the request by one of the events it scheduled for itself.
func (op *clientOp) OnEvent(ev uint64) {
	switch ev {
	case opRun:
		op.run()
	case opReadDone:
		op.readDone()
	case opScanDone:
		r, hold, done, n := op.r, op.hold, op.done, op.n
		op.recycle()
		r.work.Release(hold)
		done.fire(uint64(n))
	}
}

// run executes the operation once its worker service time has elapsed.
func (op *clientOp) run() {
	r := op.r
	switch op.kind {
	case opRead, opScan, opRMW:
		r.M.Reads++
		if r.tracer != nil {
			switch op.kind {
			case opRead:
				r.emit(Event{Kind: EvRead, Key: op.key})
			case opScan:
				r.emit(Event{Kind: EvScan, Key: op.key, N: int(op.n)})
			default:
				r.emit(Event{Kind: EvRMW, Key: op.key})
			}
		}
		if op.kind == opRead {
			if ks := r.keys.at(op.key); ks.persisted < ks.visible {
				r.M.PersistConflictReads++
			}
		}
		op.start = r.eng.Now()
		r.readAttempt(op)
	case opWrite:
		key, scope, txn, done := op.key, op.scope, op.txn, op.done
		op.recycle()
		r.M.Writes++
		if r.tracer != nil {
			r.emit(Event{Kind: EvWrite, Key: key})
		}
		r.dispatchWrite(key, scope, txn, done)
	case opInitTxn:
		done := op.done
		op.recycle()
		r.initTxn(done)
	case opEndTxn:
		txn, done := op.txn, op.done
		op.recycle()
		r.endTxn(txn, done)
	case opPersistScope:
		scope, done := op.scope, op.done
		op.recycle()
		r.persistScope(scope, done)
	}
}

// readDone finishes the read phase with the version readAttempt served.
func (op *clientOp) readDone() {
	r := op.r
	if r.tracer != nil {
		r.emit(Event{Kind: EvReadReturn, Key: op.key, Stamp: op.ver})
	}
	switch op.kind {
	case opRead:
		hold, done, ver := op.hold, op.done, op.ver
		op.recycle()
		r.work.Release(hold)
		done.fire(uint64(ver))
	case opScan:
		op.n = int32(r.scanEngine(op.key, int(op.n)))
		// Per-entry traversal cost on top of the first access.
		r.eng.ScheduleEvent(int64(op.n)*2, op, opScanDone)
	case opRMW:
		// The modify phase re-uses the write path; the read already charged
		// the request compute, so the write costs only the local update.
		hold, key, scope, txn, done := op.hold, op.key, op.scope, op.txn, op.done
		op.recycle()
		r.work.Release(hold)
		r.M.Writes++
		r.dispatchWrite(key, scope, txn, done)
	}
}

// scanEngine counts the keys a scan of up to maxLen entries from start finds
// readable, walking the key table in the modeled engine's order: an ordered
// engine visits keys >= start in ascending order until it has maxLen, a hash
// engine multi-gets the dense key range [start, start+maxLen).
func (r *Replica) scanEngine(start uint64, maxLen int) int {
	count := 0
	if r.store.Ordered {
		for k := start; k < uint64(r.p.Keys); k++ {
			if ks := r.keys.find(k); ks != nil && r.readable(ks) != 0 {
				if count++; count >= maxLen {
					break
				}
			}
		}
		return count
	}
	end := start + uint64(maxLen)
	if end > uint64(r.p.Keys) {
		end = uint64(r.p.Keys)
	}
	for k := start; k < end; k++ {
		if ks := r.keys.find(k); ks != nil && r.readable(ks) != 0 {
			count++
		}
	}
	return count
}
