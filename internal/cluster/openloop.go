package cluster

import (
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// openSource is one node's open-loop load engine: a deterministic arrival
// stream plus a pooled session table. Unlike the closed-loop client — which
// issues its next request only when the previous completes — the source
// issues every request at its generated arrival instant regardless of how
// many are still in flight, so offered load is independent of service time
// and the measured latencies are free of coordinated omission: each session's
// latency is counted from its *intended* arrival time, which is exactly when
// its arrival event fires.
//
// Sessions live in a freelist of records with completion closures pre-bound
// at construction, so a steady-state issue+complete cycle allocates nothing
// and a million concurrent sessions cost O(in-flight records), not O(clients)
// goroutine-style state machines.
type openSource struct {
	cl  *Cluster
	ns  *nodeState
	rt  *router // the node's router: every op goes through it
	gen *ycsb.Generator
	kc  *ycsb.Zipfian
	arr *ycsb.Arrivals
	rng *sim.RNG

	nextAt int64 // the already-drawn head of the arrival stream

	free     *session
	inflight int
	peak     int
	arrivals uint64 // arrivals issued while measuring (offered ops)
	late     uint64 // completions observed while measuring
}

// session is one in-flight open-loop request. kind distinguishes the
// completion paths that share the onStamp closure.
type session struct {
	src      *openSource
	key      uint64
	kind     ycsb.OpKind
	intended int64 // arrival instant; the latency origin
	next     *session

	onStamp func(protocol.Stamp)
	onScan  func(int)
}

func (o *openSource) getSession() *session {
	if s := o.free; s != nil {
		o.free = s.next
		return s
	}
	s := &session{src: o}
	s.onStamp = func(st protocol.Stamp) { s.done(st) }
	s.onScan = func(int) { s.done(0) }
	return s
}

// prewarm fills the freelist so the first n concurrent sessions allocate
// nothing — the million-session tests use it to pin the zero-alloc claim.
func (o *openSource) prewarm(n int) {
	for i := 0; i < n; i++ {
		s := o.getSession()
		s.next = o.free
		o.free = s
	}
}

// done completes a session: latency from the intended arrival, history
// records as the closed loop writes them, record back to the pool.
func (s *session) done(st protocol.Stamp) {
	o := s.src
	key, kind, intended := s.key, s.kind, s.intended
	s.next = o.free
	o.free = s
	o.inflight--
	if o.ns.measuring {
		o.late++
	}
	switch kind {
	case ycsb.OpRead:
		o.ns.finishRead(intended, key, st, -1, o.rt.node)
	case ycsb.OpScan:
		o.ns.recordRead(o.ns.eng.Now() - intended)
	default: // write, rmw
		o.ns.finishWrite(intended, key, st, -1, 0, true)
	}
}

// OnEvent fires at an arrival instant: issue every request due now, then
// re-arm for the next arrival. Implements sim.Handler, so the self-
// rescheduling arrival chain is closure-free.
func (o *openSource) OnEvent(uint64) {
	now := o.ns.eng.Now()
	for o.nextAt <= now {
		o.issue(now)
		o.nextAt = o.arr.Next()
	}
	o.ns.eng.AtEvent(o.nextAt, o, 0)
}

// issue submits one request drawn from the workload at its arrival instant.
func (o *openSource) issue(now int64) {
	o.inflight++
	if o.inflight > o.peak {
		o.peak = o.inflight
	}
	if o.ns.measuring {
		o.arrivals++
	}
	op := o.gen.Next()
	spec := o.arr.Spec()
	if spec.HotFrac > 0 && o.arr.InBurst(now) && op.Kind != ycsb.OpScan &&
		o.rng.Float64() < spec.HotFrac {
		// Hot-key storm: redirect onto the hottest ranks.
		op.Key = o.kc.KeyOfRank(o.rng.Intn(spec.HotKeys))
	}
	s := o.getSession()
	s.key = op.Key
	s.kind = op.Kind
	s.intended = now
	o.rt.submit(op, 0, s.onStamp, s.onScan)
}

// start draws the stream head and arms the first arrival event.
func (o *openSource) start() {
	o.nextAt = o.arr.Next()
	o.ns.eng.AtEvent(o.nextAt, o, 0)
}
