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
//
// A cluster's clients live in one slab (Cluster.Clients, sliced per node into
// nodeState.clients) holding each client's generator and random streams by
// value. Plain ops ride request records through the node's router; the
// transactional and scope session calls go to the home replica with the
// client itself as their completer and a token naming the call (see
// sessionTok), so no op binds a closure. A client holds only what every
// binding runs; the scope and transaction bookkeeping lives in its session,
// which only those bindings build.
type client struct {
	id   int   // global client ID
	slot int32 // index in the node's slab (request.client)
	ns   *nodeState
	rt   *router // the home node's router: every plain op goes through it
	gen  ycsb.Generator
	rng  sim.RNG

	// Pipelining: requests currently in flight (window > 1 only outside
	// transactions and scopes).
	outstanding int

	ses *session // nil unless the binding is Transactional or Scope
}

// session is one client's scope and transaction bookkeeping. New builds it,
// one slab per node, only under Transactional consistency or Scope
// persistency: every other binding runs plain ops alone, and its clients
// hold a nil session.
type session struct {
	// Scope persistency bookkeeping. A client runs one barrier at a time
	// (its pipeline drains first), so the barrier in flight lives here.
	scopeSeq    uint64
	opsInScope  int
	scopeRecs   []int // writeLog indices awaiting the scope barrier
	barrierRecs []int // the ones the barrier in flight covers

	// Transactional bookkeeping. txnGen names the live attempt: a completion
	// whose token carries another generation is stale.
	txnGen      uint64
	txnID       uint64 // the live attempt's transaction id
	txnOps      []ycsb.Op
	txnFirst    []int64          // first-issue time per op (spans retries)
	txnStamps   []protocol.Stamp // stamps of the attempt's writes
	txnAttempts int              // attempts of the current transaction (backoff growth)
	stepAt      int64            // issue time of the step in flight (read latency)
}

// init wires a slab slot whose generator and RNG New has already forked.
func (c *client) init(id int, slot int32, rt *router) {
	c.id, c.slot, c.ns, c.rt = id, slot, rt.ns, rt
}

// clientStart is the event token Cluster.Start schedules a client with; a
// retry backoff's token is an attempt generation, which never reaches it.
const clientStart = ^uint64(0)

// OnEvent starts the client, or resumes its transaction after a retry
// backoff unless the attempt moved on meanwhile. It implements sim.Handler,
// so both schedule closure-free.
func (c *client) OnEvent(tok uint64) {
	switch {
	case tok == clientStart:
		c.next()
	case c.ses != nil && tok == c.ses.txnGen:
		c.attemptTxn()
	}
}

// window returns how many requests this client keeps in flight.
// Transactions are inherently sequential; scoped streams pipeline within a
// scope and drain at its barrier.
func (c *client) window() int {
	w := c.rt.cl.Cfg.Params.ClientWindow
	if w < 2 || c.transactional() {
		return 1
	}
	return w
}

// transactional reports whether operations group into transactions in this
// run: reads serve transactionally committed versions.
func (c *client) transactional() bool { return c.rt.cl.rules.ServesCommitted }

// scoped reports whether writes carry persist scopes in this run: persists
// wait for their scope's barrier.
func (c *client) scoped() bool { return c.rt.cl.rules.Persist == core.PersistAtScope }

// curScope returns this client's current scope id (globally unique, nonzero).
func (c *client) curScope() uint64 {
	if !c.scoped() {
		return 0
	}
	return uint64(c.id+1)<<32 | c.ses.scopeSeq
}

// next keeps the client's pipeline full: it issues requests until the
// window is reached, re-arming on every completion. A due scope barrier
// first drains the pipeline (its writes must be complete before [PERSIST]s
// makes sense), then runs, then the pipeline refills.
func (c *client) next() {
	if c.scoped() && c.ses.opsInScope+c.outstanding >= c.rt.cl.Cfg.Params.ScopeSize {
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

// issueOne submits a single request of whatever kind the workload draws
// through the node's router to the shard owning its key. The transactional
// and scoped session paths stay pinned to the home replica (multi-shard
// configurations reject those models).
func (c *client) issueOne() {
	c.outstanding++
	q := c.rt.reqs.Get(1)
	q.op = c.gen.Next()
	if q.op.Kind != ycsb.OpRead {
		q.scope = c.curScope() // scans ignore it
	}
	q.at = c.ns.eng.Now()
	q.client = c.slot
	c.rt.submit(q)
}

// done completes a plain op issued at time at: latency and history (a scoped
// write is tagged for the barrier; a scan records latency only), then the
// pipeline refills.
func (c *client) done(op ycsb.Op, scope uint64, at int64, v uint64) {
	c.outstanding--
	switch op.Kind {
	case ycsb.OpRead:
		c.ns.finishRead(at, op.Key, protocol.Stamp(v), c.id, c.rt.node)
	case ycsb.OpScan:
		c.ns.recordRead(c.ns.eng.Now() - at)
	default: // write, rmw
		idx := c.ns.finishWrite(at, op.Key, protocol.Stamp(v), c.id, scope, !c.scoped())
		if idx >= 0 && c.scoped() {
			c.ses.scopeRecs = append(c.ses.scopeRecs, idx)
		}
	}
	if c.ses != nil {
		c.ses.opsInScope++
	}
	c.next()
}

// A session call's completion token: the attempt generation in the high 32
// bits, the step in the low — an op index of the attempt (its length for the
// ENDX), or one of the two named steps below.
const (
	stepInit    = 1<<32 - 1 // the attempt's INITX, and its squash
	stepBarrier = 1<<32 - 2 // a scope barrier (outside any attempt)
)

func sessionTok(gen uint64, step int) uint64 { return gen<<32 | uint64(step) }

// Complete receives the home replica's result for one of the client's
// session calls (protocol.Completer). Results of a squashed attempt are
// stale and dropped.
func (c *client) Complete(tok, v uint64) {
	step := int(tok & stepInit)
	if step == stepBarrier {
		c.barrierDone()
		return
	}
	s := c.ses
	if tok>>32 != s.txnGen {
		return // from a squashed attempt
	}
	switch {
	case step == stepInit && v == 0:
		c.txnAborted()
	case step == stepInit:
		s.txnID = v
		c.txnStep(0)
	case step == len(s.txnOps): // ENDX
		if v != 0 {
			c.txnCommitted()
		} else {
			c.txnAborted()
		}
	default:
		c.stepDone(step, protocol.Stamp(v))
	}
}

// persistScope runs the [PERSIST]s barrier; barrierDone continues the loop.
func (c *client) persistScope() {
	s := c.ses
	scope := c.curScope()
	s.barrierRecs, s.scopeRecs = s.scopeRecs, s.barrierRecs[:0]
	s.scopeSeq++
	s.opsInScope = 0
	c.rt.rep.ClientPersistScope(scope, c, stepBarrier)
}

func (c *client) barrierDone() {
	s := c.ses
	for _, i := range s.barrierRecs {
		c.ns.writeLog[i].ScopePersisted = true
	}
	c.next()
}

// ---------------------------------------------------------------------------
// Transactional loop
// ---------------------------------------------------------------------------

// startTxn plans a fresh transaction of XactionSize requests (New carves the
// per-op lists) and runs its first attempt.
func (c *client) startTxn() {
	s := c.ses
	for i := range s.txnOps {
		s.txnOps[i] = c.gen.Next()
	}
	clear(s.txnFirst)
	clear(s.txnStamps)
	s.txnAttempts = 0
	c.attemptTxn()
}

// attemptTxn runs one attempt of the current transaction.
func (c *client) attemptTxn() {
	s := c.ses
	s.txnAttempts++
	s.txnGen++
	c.rt.rep.ClientInitTxn(c, sessionTok(s.txnGen, stepInit))
}

// txnStep issues op idx of the live attempt, then ENDX after the last.
func (c *client) txnStep(idx int) {
	s := c.ses
	tok := sessionTok(s.txnGen, idx)
	if idx == len(s.txnOps) {
		c.rt.rep.ClientEndTxn(s.txnID, c, tok)
		return
	}
	op := s.txnOps[idx]
	s.stepAt = c.ns.eng.Now()
	if s.txnFirst[idx] == 0 {
		s.txnFirst[idx] = s.stepAt
	}
	if op.Kind == ycsb.OpRead || op.Kind == ycsb.OpScan {
		c.rt.rep.ClientRead(op.Key, s.txnID, c, tok)
		return
	}
	c.rt.rep.ClientWrite(op.Key, c.curScope(), s.txnID, c, tok)
}

// stepDone completes one read or write of the attempt and issues the next.
func (c *client) stepDone(idx int, st protocol.Stamp) {
	s := c.ses
	if op := s.txnOps[idx]; op.Kind == ycsb.OpRead || op.Kind == ycsb.OpScan {
		// Reads are served immediately within the transaction (Figure 4)
		// and measured per attempt; the retry cost of conflicts lands on
		// the writes, whose latency spans to the commit (Section 8.1.1:
		// writes bunch up and pay for restarts).
		c.ns.finishRead(s.stepAt, op.Key, st, c.id, c.rt.node)
	} else {
		s.txnStamps[idx] = st
	}
	c.txnStep(idx + 1)
}

// txnCommitted records the committed writes — a transactional write is only
// "satisfied" once its transaction commits (Section 8.1.1) — and loops.
func (c *client) txnCommitted() {
	s := c.ses
	for i, op := range s.txnOps {
		if op.Kind != ycsb.OpWrite {
			continue
		}
		idx := c.ns.finishWrite(s.txnFirst[i], op.Key, s.txnStamps[i], c.id, c.curScope(), !c.scoped())
		if idx >= 0 && c.scoped() {
			s.scopeRecs = append(s.scopeRecs, idx)
		}
	}
	s.opsInScope += len(s.txnOps)
	s.txnGen++
	c.next()
}

// txnAborted retries the same transaction after a randomized exponential
// backoff, bounded at 8x the base — conflicts on hot keys otherwise degrade
// into retry storms.
func (c *client) txnAborted() {
	s := c.ses
	s.txnGen++
	backoff := c.rt.cl.Cfg.Params.RetryBackoff
	scale := int64(1) << uint(min(s.txnAttempts-1, 3))
	delay := backoff*scale + c.rng.Int63n(backoff*scale+1)
	c.ns.eng.ScheduleEvent(delay, c, s.txnGen)
}
