// Fused broadcast fan-out: one pooled multicast record carries every copy of
// a BroadcastRange instead of k independent deliveries each scheduling its
// own arrive event.
//
// The fusion is possible because every arrival time of a broadcast is
// sender-computable at send time: serialization, queue-pair backpressure,
// transmit-queue occupancy, per-pair latency, hashed jitter, and the
// pair-FIFO clamp all derive from sender-local tx state plus the (src,dst)
// pair — nothing a copy's arrival depends on can change between the send and
// the arrival. The record therefore sorts its copies by (arrival time,
// sender sequence) at send time — the exact (time, src, seq) order the
// engine would dispatch k individually scheduled arrivals in, since all
// copies share one source and sequence numbers ascend with destination node
// order — schedules only the earliest copy, and chains copy to copy: after
// processing copy i it asks the engine to prove (TryAdvance) that nothing
// else runs up to copy i+1's arrival, in which case copy i+1 is processed
// inline in the same dispatch. A successful proof means the unfused engine's
// very next dispatch would have been exactly that arrival, so chaining
// preserves every timestamp, every tie-break, and every handler invocation
// order; a failed proof falls back to scheduling the copy with its original
// arrival key, where it dispatches exactly as an unfused send would.
//
// Invisibility discipline: copies beyond the next unprocessed one are not
// scheduled, so the engine's gap proofs cannot see them. Two invariants keep
// every proof sound regardless:
//
//  1. Copies are processed strictly in sorted order, and whenever no copy of
//     the record is mid-processing, the next unprocessed copy is visible
//     (scheduled). Any invisible copy therefore arrives at or after a
//     visible one from the same record, which blocks any gap proof that
//     could have been invalidated by the invisible copy.
//  2. A lane (src,dst flow) with a parked (invisible) copy is flushed —
//     the copy scheduled with its original key — before anything later is
//     sent on the same lane (the slot parks one copy, and the flow stays
//     FIFO), and before the record itself would process the copy out of
//     arrival order.
package simnet

// pendSlot parks one not-yet-pushed copy of a fused broadcast on its
// (src,dst) lane. At most one copy can be parked per lane: registering a new
// one flushes the old (invariant 2 above), and a record has at most one copy
// per destination.
type pendSlot struct {
	mc  *multicast
	idx int32
}

// mcDeliver flags a multicast event argument as the deliver hop of the
// indexed copy; without it the argument is the arrive hop's copy index.
const mcDeliver = uint64(1) << 32

// multicast carries all copies of one fused broadcast. Copies are sorted by
// (arrival, sender seq); st tracks each copy's progress; live counts
// undelivered copies so the record can recycle itself.
type multicast struct {
	n    *Network
	msg  Message // shared template; To is stamped per copy at delivery
	ser  int64   // per-copy wire serialization (all copies share Size)
	k    int
	live int
	dst  []int32
	at   []int64
	seq  []uint64
	st   []uint8
}

// Copy states. A pending copy is invisible to the engine; a queued copy has
// been scheduled as an arrival (flush or failed chain proof); an arrived
// copy has run its arrive hop (its deliver hop may still be scheduled).
const (
	copyPending uint8 = iota
	copyQueued
	copyArrived
)

// newMulticast pops a recycled record or creates one, sized for k copies.
func (n *Network) newMulticast(k int) *multicast {
	var mc *multicast
	if m := len(n.mcFree); m > 0 {
		mc = n.mcFree[m-1]
		n.mcFree[m-1] = nil
		n.mcFree = n.mcFree[:m-1]
	} else {
		mc = &multicast{n: n}
	}
	if cap(mc.dst) < k {
		mc.dst = make([]int32, k)
		mc.at = make([]int64, k)
		mc.seq = make([]uint64, k)
		mc.st = make([]uint8, k)
	}
	mc.dst = mc.dst[:k]
	mc.at = mc.at[:k]
	mc.seq = mc.seq[:k]
	mc.st = mc.st[:k]
	mc.k = k
	mc.live = k
	return mc
}

// broadcastFused is BroadcastRange under fan-out fusion: identical sender
// bookkeeping per copy (prepSend), one scheduled arrival for the earliest
// copy, the rest parked on their lanes until chained or flushed.
func (n *Network) broadcastFused(msg Message, base, size, except int) {
	N := n.cfg.Nodes
	if msg.From < 0 || msg.From >= N || base < 0 || base+size > N {
		panic("simnet: bad broadcast range")
	}
	k := 0
	for to := base; to < base+size; to++ {
		if to != msg.From && to != except {
			k++
		}
	}
	if k == 0 {
		return
	}
	if k == 1 {
		for to := base; to < base+size; to++ {
			if to != msg.From && to != except {
				m := msg
				m.To = to
				n.Send(m)
				return
			}
		}
	}
	eng := n.engs[msg.From]
	mc := n.newMulticast(k)
	mc.msg = msg
	mc.msg.SentAt = eng.Now()
	tx := &n.tx[msg.From]
	cnt := 0
	for to := base; to < base+size; to++ {
		if to == msg.From || to == except {
			continue
		}
		lane := msg.From*N + to
		// Per-lane FIFO: a copy already parked on this copy's lane is
		// scheduled first.
		if n.pend[lane].mc != nil {
			n.flushPend(lane)
		}
		m := msg
		m.To = to
		ser, arrive := n.prepSend(&m, eng)
		mc.ser = ser
		// Insert in ascending (arrive, seq) order; seq ascends with node
		// order, so equal arrivals keep ascending destination order — the
		// tie-break unfused sends would get.
		j := cnt
		for j > 0 && arrive < mc.at[j-1] {
			mc.at[j] = mc.at[j-1]
			mc.dst[j] = mc.dst[j-1]
			mc.seq[j] = mc.seq[j-1]
			j--
		}
		mc.at[j] = arrive
		mc.dst[j] = int32(to)
		mc.seq[j] = tx.seq
		cnt++
	}
	// The earliest copy is scheduled; later copies park on their lanes
	// awaiting the chain (invariant 1: the next unprocessed copy is visible).
	mc.st[0] = copyQueued
	eng.AtArrival(mc.at[0], int32(msg.From), mc.seq[0], mc, 0)
	for j := 1; j < k; j++ {
		mc.st[j] = copyPending
		lane := msg.From*N + int(mc.dst[j])
		n.pend[lane] = pendSlot{mc: mc, idx: int32(j)}
	}
}

// flushPend schedules the copy parked on lane with its original key.
func (n *Network) flushPend(lane int) {
	s := n.pend[lane]
	s.mc.pushCopy(int(s.idx))
}

// pushCopy schedules pending copy j under its original (arrive, src, seq)
// key — the unfused dispatch position.
func (mc *multicast) pushCopy(j int) {
	n := mc.n
	from := mc.msg.From
	n.pend[from*n.cfg.Nodes+int(mc.dst[j])] = pendSlot{}
	mc.st[j] = copyQueued
	n.engs[from].AtArrival(mc.at[j], int32(from), mc.seq[j], mc, uint64(j))
}

// OnEvent dispatches one scheduled hop of the record: a deliver hop for one
// copy, or an arrive hop that then chains through as many later copies as
// the engine can prove gaps for.
func (mc *multicast) OnEvent(arg uint64) {
	if arg&mcDeliver != 0 {
		mc.deliverCopy(int(arg &^ mcDeliver))
		return
	}
	i := int(arg)
	mc.n.rx[mc.dst[i]].schedArr++
	mc.runFrom(i)
}

// clearAfter reports that no invisible copy of this record arrives at or
// before t once copy i is processed — the record's own contribution to the
// gap proof guarding copy i's rx fast path (the engine cannot see pending
// copies; queued ones it checks itself).
func (mc *multicast) clearAfter(i int, t int64) bool {
	j := i + 1
	return j >= mc.k || mc.st[j] != copyPending || mc.at[j] > t
}

// runFrom processes copy i's arrive hop at the current clock (== at[i]) and
// chains forward while the gap proofs hold. Mirrors delivery.arrive for each
// copy, with the record's own pending copies folded into the fast-path
// proof.
func (mc *multicast) runFrom(i int) {
	n := mc.n
	eng := n.engs[mc.msg.From]
	for {
		mc.st[i] = copyArrived
		to := int(mc.dst[i])
		rx := &n.rx[to]
		now := eng.Now()
		rxStart := rx.rxFree
		if rxStart < now {
			rxStart = now
		}
		rxDone := rxStart + mc.ser
		rx.rxFree = rxDone
		if !n.cfg.NoFastPath && rxStart == now && mc.clearAfter(i, rxDone) && eng.TryAdvance(rxDone) {
			rx.fast++
			last := i == mc.k-1
			mc.deliverCopy(i)
			if last {
				// deliverCopy may have recycled the record; nothing of it
				// may be read past this point.
				return
			}
		} else {
			eng.AtEvent(rxDone, mc, mcDeliver|uint64(i))
		}
		j := i + 1
		if j >= mc.k || mc.st[j] != copyPending {
			return
		}
		if !eng.TryAdvance(mc.at[j]) {
			// The gap proof failed: copy j dispatches as a scheduled
			// arrival instead.
			mc.pushCopy(j)
			return
		}
		n.pend[int(mc.msg.From)*n.cfg.Nodes+int(mc.dst[j])] = pendSlot{}
		n.rx[mc.dst[j]].fused++
		i = j
	}
}

// deliverCopy hands copy i to its destination handler. The record recycles
// itself before the handler runs once every copy is delivered, so
// handler-triggered broadcasts reuse it immediately.
func (mc *multicast) deliverCopy(i int) {
	n := mc.n
	msg := mc.msg
	msg.To = int(mc.dst[i])
	mc.live--
	if mc.live == 0 {
		mc.msg = Message{} // drop the payload reference before pooling
		n.mcFree = append(n.mcFree, mc)
	}
	n.deliverMsg(msg)
}
