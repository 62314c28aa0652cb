package cluster

import (
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/ycsb"
)

// request is one plain client op on its whole way: from the load engine that
// drew it (a closed-loop client or a node's open-loop source), through the
// issuing node's router, to the replica that executes it — the local one, or
// one in another shard over the simulated network — and back. One record
// serves both load engines and both paths. It is the replica's
// protocol.Completer and, on a forwarded op, the network payload and the
// worker-pool job of each hop, so an op carries no closure anywhere.
//
// Records recycle through the issuing router's reqs, zeroed: a steady-state
// op allocates nothing. The list belongs to the router's logical process, so
// a sequential cluster's routers share one. Ownership moves with delivery:
// the origin fills the request fields, the executor reads them and writes
// the result, and the origin reads the result and recycles the record — so
// each field is only ever touched by the logical process that currently
// holds the record, with the epoch barrier ordering the hand-offs.
type request struct {
	rt *router // the router holding the record (set on each hop)
	sim.Link[request]

	op     ycsb.Op // kind, key, scan length
	scope  uint64  // persist scope (closed loop under Scope persistency)
	at     int64   // issue time, or the intended arrival on the open loop: the latency origin
	client int32   // the issuing client's slot in its node's slab; -1 for the open-loop source
	origin int32   // global node ID of the issuing router
	resp   bool    // batched forwarding: the record carries a response
	result uint64  // the executor's result: a stamp or a scan count
}

// The tokens a request gives the replica: a local op completes at its origin
// at once, a forwarded one travels back first.
const (
	reqLocal = iota
	reqForwarded
)

// Complete receives the replica's result (protocol.Completer).
func (q *request) Complete(tok, v uint64) {
	if tok == reqForwarded {
		q.result = v
		q.respond()
		return
	}
	q.rt.finish(q, v)
}

// The two worker-pool jobs a forwarded request schedules, as typed-event
// arguments.
const (
	routeExec = iota // executor side: run the operation on the local replica
	routeDone        // origin side: deliver the result
)

// OnEvent runs after a routing message's handling cost has been charged to a
// worker. It implements sim.Handler so both hops dispatch closure-free.
func (q *request) OnEvent(arg uint64) {
	if arg == routeExec {
		q.exec()
		return
	}
	q.rt.finish(q, q.result)
}

// exec runs a forwarded operation on the executing node's replica through
// the same router.execute a locally issued op takes.
func (q *request) exec() {
	rt := q.rt
	if rt.ns.measuring {
		rt.execOps++
	}
	rt.execute(q, reqForwarded)
}

// respond sends a forwarded operation's result back to its origin node.
func (q *request) respond() {
	rt := q.rt
	body := 0
	if readsValue(q.op.Kind) {
		body = rt.cl.Cfg.Params.ValueSize // the value rides the response
	}
	if rt.fb != nil {
		q.resp = true
		rt.fb.add(q, int(q.origin), 16+body) // stamp/count + value
		return
	}
	rt.net.Send(simnet.Message{
		From:    rt.node,
		To:      int(q.origin),
		Size:    rt.cl.Cfg.Params.MsgHeaderSize + body,
		Kind:    kindRouteResp,
		Payload: q,
	})
}

// finish completes q at its origin: the record goes back to the router's
// reqs and v to the client or open-loop source that issued it.
func (rt *router) finish(q *request, v uint64) {
	op, scope, at, client := q.op, q.scope, q.at, q.client
	*q = request{}
	rt.reqs.Put(q)
	if client < 0 {
		rt.ns.src.done(op, at, v)
		return
	}
	rt.ns.clients[client].done(op, scope, at, v)
}
