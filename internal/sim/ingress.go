package sim

import "math"

// Ingress is a standalone arrival queue that merges per-sender streams into
// canonical (time, source, source-sequence) order. No Engine consumes one:
// both cluster wirings schedule cross-node arrivals with Engine.AtArrival,
// whose key gives the same order inside the engine's one pending set. The
// type is kept only for the repo benchmark's sim.ingress_merge_ns kernel and
// retires with it.
//
// Structure: one FIFO lane per (src,dst) flow. Reliable-connection fabrics
// deliver each flow in order (simnet clamps a jittered early arrival behind
// its predecessor), so every lane is already sorted by (At, Seq) as pushed
// and the queue is a merge of sorted streams: Push is an O(1) ring append,
// and the canonical minimum is tracked by a winner tree over packed per-lane
// head keys, so Push and Pop touch O(log lanes) contiguous words instead of
// paying cache-missing heap sifts per message on the simulator's hottest
// path.
//
// An Ingress is not safe for concurrent use.
type Ingress struct {
	lanes []ilane
	// heads[i] mirrors lanes[i]'s front element as a packed sort key, with
	// a +Inf sentinel for empty lanes; sized to the padded leaf count.
	heads []headKey
	// tree is a winner tree over the lanes: tree[n] for internal nodes
	// n in [1, leaves) holds the winning lane index of that subtree, and
	// leaf node leaves+i is materialized as the constant i so path walks
	// never branch on node kind; tree[1] is the overall canonical
	// minimum.
	tree   []int32
	leaves int
	size   int
	headAt int64 // cached arrival time of tree[1]'s head; valid when size > 0
}

// headKey packs one lane head's (At, Src, Seq) dispatch key. Src sits above
// Seq so a single uint64 comparison breaks time ties canonically; Seq is a
// per-sender message counter and stays far below 2^48 in any feasible run.
type headKey struct {
	at  int64
	key uint64 // src<<48 | seq
}

func packKey(src int32, seq uint64) uint64 { return uint64(src)<<48 | seq&(1<<48-1) }

func (a headKey) less(b headKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// ilane is one (src,dst) flow: a FIFO ring of arrivals sorted by push order.
type ilane struct {
	evs []IngressEvent
	pos int
}

// IngressEvent is one pending arrival.
type IngressEvent struct {
	At  int64  // arrival time, ns
	Src int32  // sending node, first tie-break
	Seq uint64 // sender-local sequence, second tie-break
	H   Handler
	Arg uint64
}

// NewIngress builds a queue with the given number of lanes. Each lane is one
// sender flow; pushes within a lane must be non-decreasing in arrival time
// (the pair-FIFO property the network guarantees).
func NewIngress(lanes int) *Ingress {
	leaves := 2
	for leaves < lanes {
		leaves *= 2
	}
	q := &Ingress{
		lanes:  make([]ilane, lanes),
		heads:  make([]headKey, leaves),
		tree:   make([]int32, 2*leaves),
		leaves: leaves,
	}
	for i := range q.heads {
		q.heads[i].at = math.MaxInt64
	}
	// Build a consistent tree over the all-empty lanes: every internal node
	// must name a lane inside its own subtree before path replays can keep
	// it correct incrementally.
	for i := 0; i < leaves; i++ {
		q.tree[leaves+i] = int32(i)
	}
	for n := leaves - 1; n >= 1; n-- {
		l, r := q.tree[2*n], q.tree[2*n+1]
		if q.heads[r].less(q.heads[l]) {
			q.tree[n] = r
		} else {
			q.tree[n] = l
		}
	}
	return q
}

// Len returns the number of queued arrivals.
func (q *Ingress) Len() int { return q.size }

// HeadAt returns the earliest queued arrival time. Call only when Len > 0.
func (q *Ingress) HeadAt() int64 { return q.headAt }

// replay rematches the winner-tree path from lane's leaf to the root after
// the lane's head key changed, then refreshes the cached minimum. The
// climbing winner rides in registers; each level costs one sibling load,
// one key load, and one compare. Valid for any single-lane head change:
// sibling nodes root untouched subtrees, so their stored winners hold.
func (q *Ingress) replay(lane int) {
	win := int32(lane)
	wk := q.heads[lane]
	for m := q.leaves + lane; m > 1; m >>= 1 {
		opp := q.tree[m^1]
		if ok := q.heads[opp]; ok.less(wk) {
			win, wk = opp, ok
		}
		q.tree[m>>1] = win
	}
	q.headAt = wk.at
}

// Push queues one arrival on the given lane. Panics if the lane would
// become unsorted — the caller's transport must deliver each flow FIFO.
func (q *Ingress) Push(lane int, ev IngressEvent) {
	l := &q.lanes[lane]
	if n := len(l.evs); n > l.pos && ev.At < l.evs[n-1].At {
		panic("sim: ingress lane pushed out of order")
	}
	wasEmpty := l.pos == len(l.evs)
	l.evs = append(l.evs, ev)
	q.size++
	if wasEmpty { // lane head changed: rematch its path
		q.heads[lane] = headKey{at: ev.At, key: packKey(ev.Src, ev.Seq)}
		q.replay(lane)
	}
}

// Pop removes and returns the canonically earliest arrival. Call only when
// Len > 0.
func (q *Ingress) Pop() IngressEvent {
	lane := int(q.tree[1])
	l := &q.lanes[lane]
	ev := l.evs[l.pos]
	l.evs[l.pos] = IngressEvent{} // release the handler for GC
	l.pos++
	q.size--
	if l.pos == len(l.evs) {
		l.evs = l.evs[:0]
		l.pos = 0
		q.heads[lane] = headKey{at: math.MaxInt64}
		q.replay(lane)
		return ev
	}
	h := &l.evs[l.pos]
	q.heads[lane] = headKey{at: h.At, key: packKey(h.Src, h.Seq)}
	q.replay(lane)
	return ev
}
