package cluster

import (
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/ycsb"
)

// route.go is the per-node client router every cluster sends its plain
// client ops through (Config.Shards = 0 wires one all-servers shard, exactly
// as Shards = 1 does). Each op consults the consistent-hash ring: a key owned
// by the issuing node's own shard executes on the local replica, and a key
// owned elsewhere is forwarded over simnet to an executor inside the owning
// shard, which runs the operation on its replica group and sends the result
// back. One switch (router.execute) dispatches both to the replica's client
// calls. The transactional and scope session paths stay on the home replica.
//
// Which group member executes a forwarded op is a pluggable placement
// policy (place): the default fixed hash coordinator, power-of-two-choices
// spreading for sketch-detected hot keys (Config.Placement == "load",
// loadtrack.go), or the least-loaded replica for reads under weak
// visibility models (Config.ReplicaReads). Forwarded traffic can further
// coalesce per destination into multi-op doorbell batches
// (Config.FwdBatch > 0, fwdbatch.go).
//
// Forwarding rides the simulated network on dedicated message kinds that
// share each node's NIC with protocol traffic; a per-node demultiplexer
// (cluster.New, multi-shard rings only) splits them. Because the request, its execution, and its
// response are all ordinary simnet messages and engine events, routing
// inherits the network's canonical arrival order and stays byte-identical
// across the sequential and LP engines at any worker count.
//
// The hot path allocates nothing in steady state: an op's state rides a
// routedOp record recycled through the origin node's freelist, with its
// completion closures bound once at construction. The record itself is the
// network payload (pointer boxing is allocation-free) and ownership
// transfers with delivery — origin fills the request fields, the executor
// reads them and writes the result, the origin reads the result and recycles
// the record — so each field is only ever touched by the LP that currently
// holds the record, with the epoch barrier ordering the hand-offs.

// Routing message kinds, continuing protocol's kind numbering so per-kind
// network accounting keeps one flat table.
const (
	kindRouteReq  = int(protocol.MsgABORTX) + 1
	kindRouteResp = kindRouteReq + 1
)

// routedOp carries one forwarded operation origin → executor → origin.
type routedOp struct {
	rt     *router // router currently holding the record (set on each hop)
	op     ycsb.Op // the forwarded request: kind, key, scan length
	resp   bool    // batched-mode direction flag: record carries a response
	origin int32   // global node ID to send the response to

	stamp protocol.Stamp // result (read/write/rmw)
	count int            // result (scan)

	done     func(protocol.Stamp) // origin-side completion (read/write/rmw)
	doneScan func(int)            // origin-side completion (scan)

	next *routedOp // origin freelist link

	onStamp func(protocol.Stamp) // bound once: executor-side replica completion
	onScan  func(int)
}

// The two worker-pool jobs a routedOp schedules, as typed-event arguments.
const (
	routeExec = iota // executor side: run the operation on the local replica
	routeDone        // origin side: deliver the result to the client
)

// OnEvent runs after the routing message's handling cost has been charged to
// a worker. It implements sim.Handler so both hops dispatch closure-free.
func (op *routedOp) OnEvent(arg uint64) {
	if arg == routeExec {
		op.exec()
		return
	}
	op.complete()
}

// exec runs the forwarded operation on the executing node's replica through
// the same router.execute a locally issued op takes.
func (op *routedOp) exec() {
	rt := op.rt
	if rt.ns.measuring {
		rt.execOps++
	}
	rt.execute(op.op, 0, op.onStamp, op.onScan)
}

// respond sends the completed operation's result back to its origin node.
func (op *routedOp) respond() {
	rt := op.rt
	body := 0
	if readsValue(op.op.Kind) {
		body = rt.cl.Cfg.Params.ValueSize // the value rides the response
	}
	if rt.fb != nil {
		op.resp = true
		rt.fb.add(op, int(op.origin), 16+body) // stamp/count + value
		return
	}
	rt.net.Send(simnet.Message{
		From:    rt.node,
		To:      int(op.origin),
		Size:    rt.cl.Cfg.Params.MsgHeaderSize + body,
		Kind:    kindRouteResp,
		Payload: op,
	})
}

// complete delivers the result to the waiting client callback and recycles
// the record into the origin's freelist (where it was allocated, so pools
// stay balanced without cross-LP traffic).
func (op *routedOp) complete() {
	rt := op.rt
	stamp, count, scan := op.stamp, op.count, op.op.Kind == ycsb.OpScan
	done, doneScan := op.done, op.doneScan
	op.done, op.doneScan = nil, nil
	op.next = rt.free
	rt.free = op
	if scan {
		doneScan(count)
		return
	}
	done(stamp)
}

// router is one node's view of the sharded keyspace: the shared ring plus
// this node's forwarding state.
type router struct {
	cl    *Cluster
	ring  *ring
	ns    *nodeState
	rep   *protocol.Replica
	net   *simnet.Network
	work  *sim.Pool
	node  int // global node ID
	shard int // the shard this node belongs to

	// Skew-adaptive placement state (nil/false under the default fixed-hash
	// policy): the hot-key sketch + counters, and which policies are on.
	lt        *loadTracker
	loadPlace bool // Config.Placement == "load"
	rreads    bool // Config.ReplicaReads

	// Forwarding batcher (nil when Config.FwdBatch == 0).
	fb *fwdBatcher

	free *routedOp

	// Operation accounting over the measurement window.
	localOps uint64 // ops whose key this node's own shard owns
	fwdOps   uint64 // ops forwarded to a remote shard
	execOps  uint64 // remote-origin ops executed here
}

func newRouter(cl *Cluster, rg *ring, ns *nodeState, rep *protocol.Replica, net *simnet.Network, work *sim.Pool, node int) *router {
	return &router{
		cl: cl, ring: rg, ns: ns, rep: rep, net: net, work: work,
		node: node, shard: rg.shardOf(node),
	}
}

func (rt *router) getOp() *routedOp {
	if op := rt.free; op != nil {
		rt.free = op.next
		return op
	}
	op := &routedOp{}
	op.onStamp = func(st protocol.Stamp) {
		op.stamp = st
		op.respond()
	}
	op.onScan = func(n int) {
		op.count = n
		op.respond()
	}
	return op
}

// prewarm fills the freelist so the first n concurrent forwarded ops
// allocate nothing (the zero-alloc guards pin this).
func (rt *router) prewarm(n int) {
	for i := 0; i < n; i++ {
		op := rt.getOp()
		op.next = rt.free
		rt.free = op
	}
}

// forward ships one operation to the executor the placement policy picked
// inside the owning shard.
func (rt *router) forward(o ycsb.Op, to int, done func(protocol.Stamp), doneScan func(int)) {
	if rt.ns.measuring {
		rt.fwdOps++
	}
	op := rt.getOp()
	op.rt = rt
	op.op = o
	op.origin = int32(rt.node)
	op.stamp = 0
	op.count = 0
	op.done = done
	op.doneScan = doneScan
	body := 16 // key + op metadata
	if !readsValue(o.Kind) {
		body += rt.cl.Cfg.Params.ValueSize // the new value rides the request
	}
	if rt.fb != nil {
		rt.fb.add(op, to, body)
		return
	}
	rt.net.Send(simnet.Message{
		From:    rt.node,
		To:      to,
		Size:    rt.cl.Cfg.Params.MsgHeaderSize + body,
		Kind:    kindRouteReq,
		Payload: op,
	})
}

// onMessage receives a routing message at this node — a request to execute
// (on the executor) or a completed result (back at the origin). Either way
// the handling cost is charged to a worker, mirroring protocol messages.
func (rt *router) onMessage(m simnet.Message) {
	if m.Kind == kindRouteBatch {
		// One worker charge for the whole batch — the amortization the
		// doorbell buys; the batch fans its entries out itself.
		b := m.Payload.(*fwdBatch)
		b.rt = rt
		rt.work.AcquireEvent(rt.cl.Cfg.Params.MessageHandle, b, 0)
		return
	}
	op := m.Payload.(*routedOp)
	op.rt = rt
	arg := uint64(routeExec)
	if m.Kind == kindRouteResp {
		arg = routeDone
	}
	rt.work.AcquireEvent(rt.cl.Cfg.Params.MessageHandle, op, arg)
}

// place resolves one client op: the shard owning key and, when that is not
// this node's shard, the executor node the placement policy picks inside the
// owning group (this node otherwise). With no load tracker (the default) the
// executor is the ring's fixed-hash coordinator, hashed only for an op that
// leaves the node. read selects replica-read spreading when enabled.
func (rt *router) place(key uint64, read bool) (shard, to int) {
	shard = rt.ring.owner(key)
	if shard == rt.shard {
		if rt.lt != nil {
			// Local execution: charge this node so the counters see the
			// router's full directed load.
			rt.lt.count(rt.node)
		}
		return shard, rt.node
	}
	base := shard * rt.ring.rf
	switch {
	case rt.lt == nil:
		return shard, rt.ring.coordinator(key, shard)
	case read && rt.rreads:
		to = rt.lt.leastLoaded(base, rt.ring.rf)
	case rt.loadPlace:
		to = rt.lt.spread(key, base, rt.ring.rf, rt.ring.coordinator(key, shard))
	default:
		to = rt.ring.coordinator(key, shard)
	}
	rt.lt.count(to)
	return shard, to
}

// readsValue reports whether kind returns a value (a read or a scan) rather
// than carrying a new one (a write or an RMW). Only reading ops may be
// spread over replicas (Config.ReplicaReads).
func readsValue(kind ycsb.OpKind) bool {
	return kind == ycsb.OpRead || kind == ycsb.OpScan
}

// submit routes one client op issued at this node: it executes on the local
// replica when this node's shard owns the key, else it is forwarded to the
// executor the placement policy picks inside the owning shard. done receives
// a read, write or RMW's stamp, doneScan a scan's count. scope is nonzero
// only under Scope persistency, which a multi-shard cluster rejects — so
// forwarded writes never carry one. A scan runs entirely in the shard owning
// its start key (each shard's replica group holds that shard's keys).
func (rt *router) submit(op ycsb.Op, scope uint64, done func(protocol.Stamp), doneScan func(int)) {
	shard, to := rt.place(op.Key, readsValue(op.Kind))
	if shard != rt.shard {
		rt.forward(op, to, done, doneScan)
		return
	}
	if rt.ns.measuring {
		rt.localOps++
	}
	rt.execute(op, scope, done, doneScan)
}

// execute runs one plain op on this node's replica, whether issued here or
// forwarded in. The replica's client path charges coordinator compute and
// worker occupancy.
func (rt *router) execute(op ycsb.Op, scope uint64, done func(protocol.Stamp), doneScan func(int)) {
	switch op.Kind {
	case ycsb.OpScan:
		rt.rep.ClientScan(op.Key, op.ScanLen, doneScan)
	case ycsb.OpRMW:
		rt.rep.ClientRMW(op.Key, scope, 0, done)
	case ycsb.OpRead:
		rt.rep.ClientRead(op.Key, 0, done)
	default:
		rt.rep.ClientWrite(op.Key, scope, 0, done)
	}
}
