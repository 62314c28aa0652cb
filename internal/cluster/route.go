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
// The hot path allocates nothing in steady state: an op rides one request
// record (request.go) from its load engine to the replica and back. The
// record is the replica's completer, and on a forwarded op also the network
// payload (pointer boxing is allocation-free) and each hop's worker-pool job.

// Routing message kinds, continuing protocol's kind numbering so per-kind
// network accounting keeps one flat table.
const (
	kindRouteReq  = int(protocol.MsgABORTX) + 1
	kindRouteResp = kindRouteReq + 1
)

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

	free *request // spent records (request.go)

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

// forward ships q to the executor the placement policy picked inside the
// owning shard.
func (rt *router) forward(q *request, to int) {
	if rt.ns.measuring {
		rt.fwdOps++
	}
	q.origin = int32(rt.node)
	body := 16 // key + op metadata
	if !readsValue(q.op.Kind) {
		body += rt.cl.Cfg.Params.ValueSize // the new value rides the request
	}
	if rt.fb != nil {
		rt.fb.add(q, to, body)
		return
	}
	rt.net.Send(simnet.Message{
		From:    rt.node,
		To:      to,
		Size:    rt.cl.Cfg.Params.MsgHeaderSize + body,
		Kind:    kindRouteReq,
		Payload: q,
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
	q := m.Payload.(*request)
	q.rt = rt
	arg := uint64(routeExec)
	if m.Kind == kindRouteResp {
		arg = routeDone
	}
	rt.work.AcquireEvent(rt.cl.Cfg.Params.MessageHandle, q, arg)
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

// submit routes a request issued at this node: it executes on the local
// replica when this node's shard owns the key, else it is forwarded to the
// executor the placement policy picks inside the owning shard. q.scope is
// nonzero only under Scope persistency, which a multi-shard cluster rejects —
// so forwarded writes never carry one. A scan runs entirely in the shard
// owning its start key (each shard's replica group holds that shard's keys).
func (rt *router) submit(q *request) {
	q.rt = rt
	shard, to := rt.place(q.op.Key, readsValue(q.op.Kind))
	if shard != rt.shard {
		rt.forward(q, to)
		return
	}
	if rt.ns.measuring {
		rt.localOps++
	}
	rt.execute(q, reqLocal)
}

// execute runs q on this node's replica, whether issued here or forwarded
// in; tok tells q's completion which of the two it was. The replica's client
// path charges coordinator compute and worker occupancy.
func (rt *router) execute(q *request, tok uint64) {
	switch q.op.Kind {
	case ycsb.OpScan:
		rt.rep.ClientScan(q.op.Key, q.op.ScanLen, q, tok)
	case ycsb.OpRMW:
		rt.rep.ClientRMW(q.op.Key, q.scope, 0, q, tok)
	case ycsb.OpRead:
		rt.rep.ClientRead(q.op.Key, 0, q, tok)
	default:
		rt.rep.ClientWrite(q.op.Key, q.scope, 0, q, tok)
	}
}
