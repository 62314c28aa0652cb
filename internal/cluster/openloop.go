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
// Each in-flight request is one request record from the node's router
// freelist (request.go), with client -1: a steady-state issue+complete cycle
// allocates nothing, and a million concurrent sessions cost O(in-flight
// records), not O(clients) goroutine-style state machines.
type openSource struct {
	ns  *nodeState
	rt  *router // the node's router: every op goes through it
	gen ycsb.Generator
	kc  *ycsb.Zipfian
	arr *ycsb.Arrivals
	rng sim.RNG

	nextAt int64 // the already-drawn head of the arrival stream

	inflight int
	peak     int
	arrivals uint64 // arrivals issued while measuring (offered ops)
	late     uint64 // completions observed while measuring
}

// done completes a session: latency from the intended arrival, history
// records as the closed loop writes them.
func (o *openSource) done(op ycsb.Op, intended int64, v uint64) {
	o.inflight--
	if o.ns.measuring {
		o.late++
	}
	switch op.Kind {
	case ycsb.OpRead:
		o.ns.finishRead(intended, op.Key, protocol.Stamp(v), -1, o.rt.node)
	case ycsb.OpScan:
		o.ns.recordRead(o.ns.eng.Now() - intended)
	default: // write, rmw
		o.ns.finishWrite(intended, op.Key, protocol.Stamp(v), -1, 0, true)
	}
}

// srcStart is the event token Cluster.Start schedules a source with; every
// arrival event carries 0.
const srcStart = 1

// OnEvent fires at an arrival instant: issue every request due now, then
// re-arm for the next arrival. At srcStart it draws the stream head and arms
// the first arrival instead. Implements sim.Handler, so the self-
// rescheduling arrival chain is closure-free.
func (o *openSource) OnEvent(tok uint64) {
	if tok == srcStart {
		o.nextAt = o.arr.Next()
		o.ns.eng.AtEvent(o.nextAt, o, 0)
		return
	}
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
	q := o.rt.getReq()
	q.op = op
	q.at = now
	q.client = -1
	o.rt.submit(q)
}
