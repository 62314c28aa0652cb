package sim

import "math/bits"

// The timing wheel is a calendar queue tuned to the simulator's event-time
// distribution: almost every event lands within a few microseconds of the
// present (NIC serialization ~10 ns, NVM accesses 140-400 ns, one-way
// propagation 500-1000 ns, lazy persist/propagation 2-4 us), so a
// fine-grained near-future window turns scheduling into an O(1) array
// append and dispatch into an O(1) bitmap scan.
//
// Layout. The window covers wheelSlots (16384) one-nanosecond buckets
// starting at wnow, the time of the most recently dispatched event, so a
// bucket holds events of exactly one timestamp at a time. A bucket is an
// intrusive chain through a shared, freelist-recycled node slab (8 bytes per
// cold bucket, no allocation in steady state), kept sorted by the tie-break
// key (see insert). Dispatching buckets in circular order from wnow's cursor
// replays the heap's exact (time, key) order
// (TestSchedulerDifferentialRandomized, the golden 5x5 fixture); dispatch
// reads the head node in place (see popIfAtMost).
//
// Events beyond the window wait in an overflow level (the 4-ary heap) and are
// re-bucketed once the advancing wnow brings them within the window, or when
// the window empties. One seed-1 rep of each repo benchmark workload (bench/)
// sends these there, by distance from the engine clock at push:
//
//   - flat_matrix: 110,180. 107,425 are NVM completions behind a bank backlog
//     (up to 926 accesses in flight), nearly all from <Causal,Eventual>,
//     <Eventual,Synchronous>, <Eventual,Eventual> and Table 1's
//     <Eventual,Eventual> cell: 30,692 land within 2^15 ns, 76,733 within
//     2^16 ns. The other 2,755 are Transactional retry backoffs, all within
//     2^15 ns.
//   - sparse_openloop: 655 open-loop arrival timers: 632 within 2^15 ns, 22
//     within 2^16 ns, 1 within 2^17 ns.
//   - sharded_skew and scale160: 0.
//
// Occupancy is a two-level bitmap (one bit per bucket in occ, one per occ
// word in sum), so finding the next non-empty bucket from the cursor is a
// handful of masked TrailingZeros64 calls however sparse the window is.
const (
	wheelBits  = 14
	wheelSlots = 1 << wheelBits // 16384 ns near-future window
	wheelMask  = wheelSlots - 1
	occWords   = wheelSlots / 64
	sumWords   = occWords / 64
)

// eventNode is one slab entry: an event without its time, which its bucket
// gives (a bucket spans exactly 1 ns; see popIfAtMost), plus its intra-bucket
// chain link. 40 B: the time word would make it 48.
type eventNode struct {
	seq  uint64
	h    Handler
	arg  uint64
	next int32
}

// bucket is one slot's chain into the node slab: head is -1 when empty, tail
// is the append side and meaningful only while head >= 0.
type bucket struct {
	head, tail int32
}

// timingWheel is the engine's default scheduler. The zero value is ready to
// use; storage is allocated on first push.
type timingWheel struct {
	buckets []bucket
	occ     []uint64         // one bit per bucket
	sum     [sumWords]uint64 // one bit per occ word

	nodes []eventNode
	free  int32 // freelist head into nodes, -1 = none

	count int   // events currently in the window
	wnow  int64 // window start: time of the last dispatched event

	overflow eventHeap // events at >= wnow+wheelSlots, keyed (time, seq)

	wheelEvents    uint64 // scheduled directly into the window
	overflowEvents uint64 // landed in the overflow level first
	turns          uint64 // re-bucketing passes
}

func (w *timingWheel) len() int { return w.count + w.overflow.len() }

func (w *timingWheel) grow() {
	w.buckets = make([]bucket, wheelSlots)
	for i := range w.buckets {
		w.buckets[i].head = -1
	}
	w.occ = make([]uint64, occWords)
	w.free = -1
}

// reserve presizes the node slab for n in-flight events.
func (w *timingWheel) reserve(n int) {
	if w.buckets == nil {
		w.grow()
	}
	if cap(w.nodes) < n {
		grown := make([]eventNode, len(w.nodes), n)
		copy(grown, w.nodes)
		w.nodes = grown
	}
}

// push schedules ev. now is the engine clock, which lower-bounds every
// future event time and so can safely re-base an empty wheel's window.
func (w *timingWheel) push(ev *event, now int64) {
	if w.buckets == nil {
		w.grow()
	}
	if w.count == 0 && w.overflow.len() == 0 && now > w.wnow {
		// Nothing pending: snap the window to the present so an idle gap
		// does not push near-future events into the overflow level.
		w.wnow = now
	}
	if ev.at-w.wnow < wheelSlots {
		w.insert(ev, ev.seq&localBit == 0)
		w.wheelEvents++
		return
	}
	w.overflow.push(*ev)
	w.overflowEvents++
}

// insert places ev into its bucket's chain in key order; ev.at must lie in
// [wnow, wnow+wheelSlots). Unless ordered is set, ev is a directly pushed
// local event and so the largest key in its bucket: local keys only grow,
// every arrival key sorts below every local key, and an overflow-drained
// event is older than anything pushed directly. It tail-appends without
// reading the tail node. Ordered inserts serve the two producers of
// out-of-order keys: a cross-node arrival (Engine.AtArrival) and an overflow
// drain re-bucketing an old event behind a younger same-time one. They
// tail-append after one tail-key compare, prepend at the head, or walk the
// chain to splice.
func (w *timingWheel) insert(ev *event, ordered bool) {
	slot := int32(ev.at) & wheelMask
	ni := w.alloc(ev)
	b := &w.buckets[slot]
	if b.head < 0 {
		b.head, b.tail = ni, ni
		w.occ[slot>>6] |= 1 << uint(slot&63)
		w.sum[slot>>12] |= 1 << uint((slot>>6)&63)
	} else if seq := ev.seq; !ordered || w.nodes[b.tail].seq < seq {
		w.nodes[b.tail].next = ni
		b.tail = ni
	} else if w.nodes[b.head].seq > seq {
		w.nodes[ni].next = b.head
		b.head = ni
	} else {
		prev := b.head
		for w.nodes[w.nodes[prev].next].seq < seq {
			prev = w.nodes[prev].next
		}
		w.nodes[ni].next = w.nodes[prev].next
		w.nodes[prev].next = ni
	}
	w.count++
}

// alloc takes a node off the freelist, or grows the slab. The recycled
// node is filled field by field: the caller built *ev with word-sized stores
// an instant ago, and the 16-byte loads of a whole-struct copy cannot be
// forwarded from those — a stall per scheduled event (~10% of
// BenchmarkEngineDeepPending).
func (w *timingWheel) alloc(ev *event) int32 {
	if ni := w.free; ni >= 0 {
		n := &w.nodes[ni]
		w.free = n.next
		n.seq, n.h, n.arg = ev.seq, ev.h, ev.arg
		n.next = -1
		return ni
	}
	w.nodes = append(w.nodes, eventNode{seq: ev.seq, h: ev.h, arg: ev.arg, next: -1})
	return int32(len(w.nodes) - 1)
}

// drainOverflow re-buckets every overflow event the window now covers.
// Popping the overflow heap in (time, key) order keeps the drain itself
// ordered; insert splices each event past any younger same-time event a
// handler pushed directly into the window since the last drain.
func (w *timingWheel) drainOverflow() {
	for w.overflow.len() > 0 && w.overflow.peek().at-w.wnow < wheelSlots {
		ev := w.overflow.pop()
		w.insert(&ev, true)
	}
}

// popIfAtMost extracts the next event in (time, seq) order if its time is
// <= limit. A window event comes out as scalars read from its node in place
// (the time from the slot), never as an event value: reloading a just-built
// struct copy with 16-byte loads stalls on store forwarding, as alloc notes
// for the insert side. Only the handler word is cleared, for GC.
func (w *timingWheel) popIfAtMost(limit int64) (at int64, seq uint64, h Handler, arg uint64, ok bool) {
	if w.count == 0 {
		if w.overflow.len() == 0 {
			return 0, 0, nil, 0, false
		}
		// Wheel turn: the window emptied. Re-bucket what fits; if the next
		// event is still beyond the horizon, dispatch it straight from the
		// overflow level (its time re-bases the window for the events after
		// it).
		w.turns++
		w.drainOverflow()
		if w.count == 0 {
			if w.overflow.headAt() > limit {
				return 0, 0, nil, 0, false
			}
			ev := w.overflow.pop()
			w.wnow = ev.at
			return ev.at, ev.seq, ev.h, ev.arg, true
		}
	} else if w.overflow.len() > 0 {
		// wnow advanced since the last pop: far events may fit the window
		// now, and they could precede everything currently bucketed.
		w.drainOverflow()
	}

	slot := w.firstOccupied()
	// A bucket spans exactly 1 ns, so the head's time follows from the
	// slot's circular distance to the cursor — no node load needed on the
	// (frequent) limit-exceeded probe.
	at = w.wnow + int64((slot-int32(w.wnow))&wheelMask)
	if at > limit {
		return 0, 0, nil, 0, false
	}
	ni := w.buckets[slot].head
	n := &w.nodes[ni]
	seq, h, arg = n.seq, n.h, n.arg
	w.buckets[slot].head = n.next
	if n.next < 0 {
		w.occ[slot>>6] &^= 1 << uint(slot&63)
		if w.occ[slot>>6] == 0 {
			w.sum[slot>>12] &^= 1 << uint((slot>>6)&63)
		}
	}
	n.h = nil // release the handler for GC
	n.next = w.free
	w.free = ni
	w.count--
	w.wnow = at
	return at, seq, h, arg, true
}

// headAt returns the earliest pending event time without dispatching or
// re-bucketing anything (maxTime when empty). The true head is the minimum
// over the window and the overflow level: drainOverflow only ever moves
// events between the two, so peeking both is exact.
func (w *timingWheel) headAt() int64 {
	head := maxTime
	if w.count > 0 {
		slot := w.firstOccupied()
		head = w.wnow + int64((slot-int32(w.wnow))&wheelMask)
	}
	if at := w.overflow.headAt(); at < head {
		head = at
	}
	return head
}

// firstOccupied returns the first non-empty bucket in circular order from
// wnow's cursor — the bucket holding the earliest pending time. Call only
// when count > 0.
func (w *timingWheel) firstOccupied() int32 {
	c := int32(w.wnow) & wheelMask
	wi := c >> 6
	// Bits at or above the cursor within its own word.
	if word := w.occ[wi] &^ (1<<uint(c&63) - 1); word != 0 {
		return wi<<6 | int32(bits.TrailingZeros64(word))
	}
	// Scan the following occ words via the summary bitmap, wrapping once;
	// the final iteration re-reads the cursor's word in full, which covers
	// the buckets below the cursor (the wrapped end of the window).
	si := wi >> 6
	sword := w.sum[si] &^ (1<<uint((wi&63)+1) - 1) // words strictly after wi
	for k := 0; k <= sumWords; k++ {
		if sword != 0 {
			wj := si<<6 | int32(bits.TrailingZeros64(sword))
			return wj<<6 | int32(bits.TrailingZeros64(w.occ[wj]))
		}
		si = (si + 1) & (sumWords - 1)
		sword = w.sum[si]
	}
	return -1 // unreachable while count > 0
}
