package cluster

import "repro/internal/simnet"

// fwdbatch.go implements doorbell batching on the router's forwarding path
// (Config.FwdBatch > 0): routed requests and responses headed to the same
// destination coalesce into one pooled multi-op simnet message, held until
// either FwdBatch ops have gathered or FwdWindowNs has elapsed since the
// batch opened. One message header and one MessageHandle worker charge then
// amortize over the whole batch — the classic doorbell/IO-ring trade of a
// little added latency for per-op overhead.
//
// Batching changes modeled timing only, never op outcomes: every entry is
// the same request record the unbatched path would have sent, executed by
// the same replica in the same per-destination order (a batch preserves its
// append order, and simnet delivery keeps per-pair FIFO). With FwdBatch == 0
// (the default) no batcher is built and every routed op travels as its own
// message, the path whose exact counters the schedule fingerprint's 16-shard
// cells pin. Batched runs are proven sequential-vs-LP identical by
// TestShardedPlacementDifferential and TestShardedOpenLoopFwdBatchDifferential.
//
// LP safety mirrors the request record's: a batch record is owned by the
// sending LP until net.Send parks it in the network (the sender's mailbox
// under LP wiring), and the receiver owns it afterwards. The doorbell timer's handler
// is the *batcher* (which never migrates), not the batch, with the
// destination as the event argument — so a timer left behind by an early
// size-triggered flush can never touch a record whose ownership has already
// moved; it just finds no pending batch (or a successor with a strictly later
// deadline) and does nothing.

// kindRouteBatch carries one fwdBatch of routed ops.
const kindRouteBatch = kindRouteResp + 1

// fwdBatch is one in-flight multi-op message: up to the batcher's op budget
// of requests plus their summed body bytes.
type fwdBatch struct {
	rt       *router // receiver-side: set on delivery, like request.rt
	deadline int64   // sender-side: when the doorbell timer fires
	bytes    int     // summed per-op body bytes (headers amortize)
	ops      []*request
	next     *fwdBatch // freelist link
}

// fwdBatcher is one router's sender-side batching state.
type fwdBatcher struct {
	rt     *router
	limit  int         // flush at this many ops
	window int64       // ns a partial batch waits for company
	pend   []*fwdBatch // open batch per destination node (nil = none)
	free   *fwdBatch
}

func newFwdBatcher(rt *router, limit int, window int64) *fwdBatcher {
	return &fwdBatcher{
		rt: rt, limit: limit, window: window,
		pend: make([]*fwdBatch, rt.cl.Cfg.Params.Servers),
	}
}

func (fb *fwdBatcher) get() *fwdBatch {
	if b := fb.free; b != nil {
		fb.free = b.next
		return b
	}
	return &fwdBatch{ops: make([]*request, 0, fb.limit)}
}

// add queues q for destination to, opening a batch (and arming its doorbell
// timer) when none is pending and flushing when the op budget fills. body is
// the op's payload size beyond the shared message header.
func (fb *fwdBatcher) add(q *request, to, body int) {
	b := fb.pend[to]
	if b == nil {
		b = fb.get()
		b.deadline = fb.rt.ns.eng.Now() + fb.window
		fb.pend[to] = b
		fb.rt.ns.eng.AtEvent(b.deadline, fb, uint64(to))
	}
	b.ops = append(b.ops, q)
	b.bytes += body
	if len(b.ops) >= fb.limit {
		fb.flush(to)
	}
}

// OnEvent is the doorbell timer: flush the pending batch whose hold window
// ends now. The deadline check skips stale timers left by size-triggered
// flushes — a successor batch to the same destination always opened later,
// so its deadline is strictly later and its own timer is still armed.
func (fb *fwdBatcher) OnEvent(arg uint64) {
	to := int(arg)
	b := fb.pend[to]
	if b == nil || b.deadline != fb.rt.ns.eng.Now() {
		return
	}
	fb.flush(to)
}

// flush sends the open batch for destination to as one message: one header
// plus the summed op bodies.
func (fb *fwdBatcher) flush(to int) {
	b := fb.pend[to]
	fb.pend[to] = nil
	rt := fb.rt
	rt.net.Send(simnet.Message{
		From:    rt.node,
		To:      to,
		Size:    rt.cl.Cfg.Params.MsgHeaderSize + b.bytes,
		Kind:    kindRouteBatch,
		Payload: b,
	})
}

// OnEvent runs at the receiver after the batch message's handling cost was
// charged to one worker — the whole batch amortizes a single MessageHandle.
// Each entry then takes its normal hop: requests execute on the local
// replica, responses complete at their waiting client. The record recycles
// into the receiving router's freelist once drained (batches migrate with
// traffic, like requests, so pools balance without cross-LP frees).
func (b *fwdBatch) OnEvent(uint64) {
	rt := b.rt
	for i, q := range b.ops {
		b.ops[i] = nil
		q.rt = rt
		if q.resp {
			rt.finish(q, q.result)
		} else {
			q.exec()
		}
	}
	b.ops = b.ops[:0]
	b.bytes = 0
	b.next = rt.fb.free
	rt.fb.free = b
}

// prewarm fills the freelist so the first n concurrent batches allocate
// nothing (the zero-alloc guard pins this).
func (fb *fwdBatcher) prewarm(n int) {
	for i := 0; i < n; i++ {
		b := fb.get()
		b.next = fb.free
		fb.free = b
	}
}
