package cluster

import (
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// client is one closed-loop load generator pinned to its local server (the
// paper runs client threads and worker threads on each node). It issues the
// next request as soon as the previous completes, wrapping requests in
// transactions under Transactional consistency and in persist scopes under
// Scope persistency.
type client struct {
	id   int
	cl   *Cluster
	ns   *nodeState // the client's home node: engine + measurement sinks
	node *protocol.Replica
	rt   *router // the home node's router: every plain op goes through it
	gen  *ycsb.Generator
	rng  *sim.RNG

	// Pipelining: requests currently in flight (window > 1 only outside
	// transactions and scopes).
	outstanding int

	// Scope persistency bookkeeping. A client runs one barrier at a time
	// (its pipeline drains first), so the barrier in flight lives here.
	scopeSeq     uint64
	opsInScope   int
	scopeRecs    []int  // writeLog indices awaiting the scope barrier
	barrierRecs  []int  // the ones the barrier in flight covers
	barrierStart int64  // when it was issued
	onBarrier    func() // barrierDone, bound by the first barrier

	// Transactional bookkeeping.
	txnGen      uint64 // attempt guard: stale callbacks compare against this
	txnOps      []ycsb.Op
	txnFirst    []int64          // first-issue time per op (spans retries)
	txnStamps   []protocol.Stamp // stamps of the attempt's writes
	txnStarted  int64
	txnAttempts int         // attempts of the current transaction (backoff growth)
	attempt     *txnAttempt // the live attempt

	// Freelists of op, attempt and transaction-step records: the
	// closed-loop issue path allocates nothing in steady state (see opRec,
	// txnAttempt).
	freeRecs     *opRec
	freeAttempts *txnAttempt
	freeSteps    *txnStepRec
}

// opRec carries one in-flight request's state. Completion closures are
// bound to the record once at construction and the record recycles through
// the client's freelist, so a steady-state request issues with zero
// allocations — with window W at most W records exist per client.
type opRec struct {
	c     *client
	key   uint64
	scope uint64
	start int64
	next  *opRec // freelist link

	onRead  func(protocol.Stamp)
	onWrite func(protocol.Stamp)
	onScan  func(int)
}

func (c *client) getRec() *opRec {
	if r := c.freeRecs; r != nil {
		c.freeRecs = r.next
		return r
	}
	r := &opRec{c: c}
	r.onRead = func(st protocol.Stamp) { r.readDone(st) }
	r.onWrite = func(st protocol.Stamp) { r.writeDone(st) }
	r.onScan = func(int) { r.scanDone() }
	return r
}

func (c *client) putRec(r *opRec) {
	r.next = c.freeRecs
	c.freeRecs = r
}

// readDone completes a plain read: record latency and history, refill the
// pipeline.
func (r *opRec) readDone(st protocol.Stamp) {
	c, key, start := r.c, r.key, r.start
	c.putRec(r)
	c.outstanding--
	c.ns.finishRead(start, key, st, c.id, c.node.ID())
	c.opsInScope++
	c.next()
}

// writeDone completes a write or RMW: record latency and history (tagging
// scoped writes for the barrier), refill the pipeline.
func (r *opRec) writeDone(st protocol.Stamp) {
	c, key, scope, start := r.c, r.key, r.scope, r.start
	c.putRec(r)
	c.outstanding--
	idx := c.ns.finishWrite(start, key, st, c.id, scope, !c.scoped())
	if idx >= 0 && c.scoped() {
		c.scopeRecs = append(c.scopeRecs, idx)
	}
	c.opsInScope++
	c.next()
}

// scanDone completes a scan (read-latency accounting, no history record).
func (r *opRec) scanDone() {
	c, start := r.c, r.start
	c.putRec(r)
	c.outstanding--
	c.ns.recordRead(c.ns.eng.Now() - start)
	c.opsInScope++
	c.next()
}

func newClient(id int, cl *Cluster, rt *router, gen *ycsb.Generator, rng *sim.RNG) *client {
	return &client{id: id, cl: cl, ns: rt.ns, node: rt.rep, rt: rt, gen: gen, rng: rng, scopeSeq: 1}
}

func (c *client) start() { c.next() }

// window returns how many requests this client keeps in flight.
// Transactions are inherently sequential; scoped streams pipeline within a
// scope and drain at its barrier.
func (c *client) window() int {
	w := c.cl.Cfg.Params.ClientWindow
	if w < 2 || c.transactional() {
		return 1
	}
	return w
}

// transactional reports whether operations group into transactions in this
// run. Custom bindings resolve through the registry to their implementation.
func (c *client) transactional() bool {
	return core.ImplOf(c.cl.Cfg.Model).C == core.Transactional
}

// scoped reports whether writes carry persist scopes in this run.
func (c *client) scoped() bool { return core.ImplOf(c.cl.Cfg.Model).P == core.Scope }

// curScope returns this client's current scope id (globally unique, nonzero).
func (c *client) curScope() uint64 {
	if !c.scoped() {
		return 0
	}
	return uint64(c.id+1)<<32 | c.scopeSeq
}

// next keeps the client's pipeline full: it issues requests until the
// window is reached, re-arming on every completion. A due scope barrier
// first drains the pipeline (its writes must be complete before [PERSIST]s
// makes sense), then runs, then the pipeline refills.
func (c *client) next() {
	if c.scoped() && c.opsInScope+c.outstanding >= c.cl.Cfg.Params.ScopeSize {
		if c.outstanding > 0 {
			return // draining toward the barrier; completions re-enter next()
		}
		c.persistScope()
		return
	}
	if c.transactional() {
		c.startTxn()
		return
	}
	for c.outstanding < c.window() {
		c.issueOne()
	}
}

// issueOne submits a single request of whatever kind the workload draws,
// carrying its state in a recycled opRec, through the node's router to the
// shard owning its key. The transactional and scoped session paths stay
// pinned to the home replica (multi-shard configurations reject those
// models).
func (c *client) issueOne() {
	c.outstanding++
	op := c.gen.Next()
	rec := c.getRec()
	rec.key = op.Key
	rec.scope = 0
	rec.start = c.ns.eng.Now()
	done := rec.onRead
	if op.Kind != ycsb.OpRead {
		rec.scope = c.curScope() // scans ignore it
		done = rec.onWrite
	}
	c.rt.submit(op, rec.scope, done, rec.onScan)
}

// persistScope runs the [PERSIST]s barrier; barrierDone continues the loop.
func (c *client) persistScope() {
	scope := c.curScope()
	c.barrierRecs, c.scopeRecs = c.scopeRecs, c.barrierRecs[:0]
	c.scopeSeq++
	c.opsInScope = 0
	c.barrierStart = c.ns.eng.Now()
	if c.onBarrier == nil {
		c.onBarrier = c.barrierDone
	}
	c.node.ClientPersistScope(scope, c.onBarrier)
}

func (c *client) barrierDone() {
	c.ns.recordScope(c.ns.eng.Now() - c.barrierStart)
	for _, i := range c.barrierRecs {
		c.ns.writeLog[i].ScopePersisted = true
	}
	c.next()
}

// ---------------------------------------------------------------------------
// Transactional loop
// ---------------------------------------------------------------------------

// txnAttempt carries one attempt's INITX callbacks — the id delivery and the
// abort notification — and txnStepRec those of one read, write or ENDX
// inside it. Both record the attempt they belong to, so a callback arriving
// after its attempt was squashed is recognised as stale; closures are bound
// once and the records recycle through the client's freelists. An attempt
// record recycles when its attempt ends: the replica drops a transaction's
// callbacks before reporting its end, so none can follow.
type txnAttempt struct {
	c    *client
	gen  uint64 // the attempt; stale once it differs from c.txnGen
	next *txnAttempt

	onAbort func()
	onInit  func(txn uint64)
}

// txnStepRec recycles when its callback fires. A squashed write's never
// does; that record is left to the collector, which is why steps are not
// folded into txnAttempt: what a squash strands stays small.
type txnStepRec struct {
	c    *client
	gen  uint64 // as txnAttempt.gen
	id   uint64 // transaction id
	idx  int    // index into c.txnOps; len(c.txnOps) for the ENDX
	at   int64  // issue time (read steps)
	next *txnStepRec

	onStamp func(protocol.Stamp)
	onEnd   func(committed bool)
}

// startTxn plans a fresh transaction of XactionSize requests and runs its
// first attempt.
func (c *client) startTxn() {
	n := c.cl.Cfg.Params.XactionSize
	c.txnOps = c.txnOps[:0]
	for i := 0; i < n; i++ {
		c.txnOps = append(c.txnOps, c.gen.Next())
	}
	if cap(c.txnFirst) < n {
		c.txnFirst = make([]int64, n)
		c.txnStamps = make([]protocol.Stamp, n)
	}
	c.txnFirst, c.txnStamps = c.txnFirst[:n], c.txnStamps[:n]
	clear(c.txnFirst)
	clear(c.txnStamps)
	c.txnStarted = c.ns.eng.Now()
	c.txnAttempts = 0
	c.attemptTxn()
}

// attemptTxn runs one attempt of the current transaction.
func (c *client) attemptTxn() {
	c.txnAttempts++
	c.txnGen++
	a := c.freeAttempts
	if a != nil {
		c.freeAttempts = a.next
	} else {
		a = &txnAttempt{c: c}
		a.onAbort = func() { a.c.txnAborted(a.gen) }
		a.onInit = func(txn uint64) { a.c.txnStep(a.gen, txn, 0) }
	}
	a.gen = c.txnGen
	c.attempt = a
	c.node.ClientInitTxn(a.onAbort, a.onInit)
}

// endAttempt recycles the live attempt's record once the attempt is over,
// committed or aborted.
func (c *client) endAttempt() {
	c.attempt.next = c.freeAttempts
	c.freeAttempts = c.attempt
	c.attempt = nil
}

// txnStep issues op idx of the current attempt, then ENDX after the last.
func (c *client) txnStep(gen, id uint64, idx int) {
	if gen != c.txnGen {
		return // stale callback from a squashed attempt
	}
	r := c.freeSteps
	if r != nil {
		c.freeSteps = r.next
	} else {
		r = &txnStepRec{c: c}
		r.onStamp = func(st protocol.Stamp) { r.stepDone(st) }
		r.onEnd = func(committed bool) { r.endDone(committed) }
	}
	r.gen, r.id, r.idx = gen, id, idx
	if idx == len(c.txnOps) {
		c.node.ClientEndTxn(id, r.onEnd)
		return
	}
	op := c.txnOps[idx]
	r.at = c.ns.eng.Now()
	if c.txnFirst[idx] == 0 {
		c.txnFirst[idx] = r.at
	}
	if op.Kind == ycsb.OpRead || op.Kind == ycsb.OpScan {
		c.node.ClientRead(op.Key, id, r.onStamp)
		return
	}
	c.node.ClientWrite(op.Key, c.curScope(), id, r.onStamp)
}

// stepDone completes one read or write of the attempt and issues the next.
func (r *txnStepRec) stepDone(st protocol.Stamp) {
	c, gen, id, idx, at := r.c, r.gen, r.id, r.idx, r.at
	r.next, c.freeSteps = c.freeSteps, r
	if gen != c.txnGen {
		return
	}
	if op := c.txnOps[idx]; op.Kind == ycsb.OpRead || op.Kind == ycsb.OpScan {
		// Reads are served immediately within the transaction (Figure 4)
		// and measured per attempt; the retry cost of conflicts lands on
		// the writes, whose latency spans to the commit (Section 8.1.1:
		// writes bunch up and pay for restarts).
		c.ns.finishRead(at, op.Key, st, c.id, c.node.ID())
	} else {
		c.txnStamps[idx] = st
	}
	c.txnStep(gen, id, idx+1)
}

// endDone receives the attempt's ENDX outcome.
func (r *txnStepRec) endDone(committed bool) {
	c, gen := r.c, r.gen
	r.next, c.freeSteps = c.freeSteps, r
	if gen != c.txnGen {
		return
	}
	if committed {
		c.txnCommitted()
	} else {
		c.txnAborted(gen)
	}
}

// txnCommitted records the committed writes — a transactional write is only
// "satisfied" once its transaction commits (Section 8.1.1) — and loops.
func (c *client) txnCommitted() {
	c.endAttempt()
	for i, op := range c.txnOps {
		if op.Kind != ycsb.OpWrite {
			continue
		}
		idx := c.ns.finishWrite(c.txnFirst[i], op.Key, c.txnStamps[i], c.id, c.curScope(), !c.scoped())
		if idx >= 0 && c.scoped() {
			c.scopeRecs = append(c.scopeRecs, idx)
		}
	}
	c.opsInScope += len(c.txnOps)
	c.txnGen++
	c.next()
}

// txnAborted retries the same transaction after a randomized exponential
// backoff, bounded at 8x the base — conflicts on hot keys otherwise degrade
// into retry storms.
func (c *client) txnAborted(gen uint64) {
	if gen != c.txnGen {
		return
	}
	c.endAttempt()
	c.txnGen++
	backoff := c.cl.Cfg.Params.RetryBackoff
	scale := int64(1) << uint(min(c.txnAttempts-1, 3))
	delay := backoff*scale + c.rng.Int63n(backoff*scale+1)
	c.ns.eng.ScheduleEvent(delay, c, c.txnGen)
}

// OnEvent resumes the transaction after its retry backoff, unless the
// attempt guard moved meanwhile. It implements sim.Handler so the backoff
// schedules closure-free.
func (c *client) OnEvent(resume uint64) {
	if c.txnGen == resume {
		c.attemptTxn()
	}
}
