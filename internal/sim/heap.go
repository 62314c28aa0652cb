package sim

// eventHeap is a hand-rolled 4-ary min-heap over a value slice, ordered by
// (time, seq). It is the wheel's overflow level, where it holds the events
// beyond the wheel's fine-grained window, and — as the engine's original
// scheduler — the oracle the wheel is tested against
// (TestSchedulerDifferentialRandomized).
// Avoiding container/heap's interface boxing roughly halves heap time.
type eventHeap struct {
	evs []event
}

func (h *eventHeap) len() int { return len(h.evs) }

// push inserts into the heap (sift-up).
func (h *eventHeap) push(ev event) {
	h.evs = append(h.evs, ev)
	i := len(h.evs) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !h.evs[i].before(&h.evs[parent]) {
			break
		}
		h.evs[i], h.evs[parent] = h.evs[parent], h.evs[i]
		i = parent
	}
}

// peek returns the minimum event without removing it. Call only when len>0.
func (h *eventHeap) peek() *event { return &h.evs[0] }

// headAt returns the minimum pending time, or maxTime when empty.
func (h *eventHeap) headAt() int64 {
	if len(h.evs) == 0 {
		return maxTime
	}
	return h.evs[0].at
}

// pop removes the minimum event (sift-down). Call only when len>0.
func (h *eventHeap) pop() event {
	s := h.evs
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s[last] = event{} // release the handler for GC
	s = s[:last]
	h.evs = s

	i := 0
	for {
		first := 4*i + 1
		if first >= len(s) {
			break
		}
		best := first
		end := first + 4
		if end > len(s) {
			end = len(s)
		}
		for c := first + 1; c < end; c++ {
			if s[c].before(&s[best]) {
				best = c
			}
		}
		if !s[best].before(&s[i]) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}
