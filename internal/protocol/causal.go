package protocol

import "repro/internal/vclock"

// causalHistory snapshots a Causal write's happens-before history, the
// cauhist its UPD carries: everything this node has applied, plus the write
// itself. The snapshot is the replica's histOut, valid until its next write:
// the UPD must be sent before then, and the send copies it into its box.
func (r *Replica) causalHistory() []uint64 {
	r.issued++
	r.histOut = append(r.histOut[:0], r.appliedVC...)
	r.histOut[r.id] = r.issued
	return r.histOut
}

// The causal reorder buffer is indexed, not scanned: every parked update is
// filed under the first (node, count) dependency it is waiting for, and is
// re-evaluated exactly when the local applied vector reaches that count.
// Each update is re-filed at most once per vector component, so delivery
// work is O(components) amortized — a flat scan per apply degrades to
// O(buffer^2) under Synchronous persistency, whose persist-gated applies
// grow the buffer by orders of magnitude (Section 8.1.2).
//
// A parked update is its UPD's payload box: the receiver takes one more
// reference on the box, so the box, its body and its history stay put —
// shared by every receiver that buffers the same update — until the update
// applies or is dropped as a stale duplicate and the reference is released.

// waitRing is one writer's index of the reorder buffer: the FIFO (in bufs)
// of updates waiting for the writer's count done+1+k has its tail token in
// tails[(head+k) mod len(tails)]. The drain visits the writer's counts in
// order as its applied counter advances, so each visit pops the front, and
// every count filed is above done. The zero value is an empty ring.
type waitRing struct {
	tails []int32 // power-of-two ring of FIFO tail tokens, 0 = none waiting
	head  int     // slot of count done+1
	done  uint64  // counts visited so far
}

// at returns the tail token of the FIFO for count c > done, first growing the
// ring to reach it.
func (w *waitRing) at(c uint64) *int32 {
	k := int(c - w.done - 1)
	if k >= len(w.tails) {
		size := max(8, 2*len(w.tails))
		for size <= k {
			size *= 2
		}
		grown := make([]int32, size)
		n := copy(grown, w.tails[w.head:])
		copy(grown[n:], w.tails[:w.head])
		w.tails, w.head = grown, 0
	}
	return &w.tails[(w.head+k)&(len(w.tails)-1)]
}

// pop visits count done+1: it returns the tail token of that count's FIFO,
// or 0 when nothing waits for it, and empties its slot for count done+1+len.
func (w *waitRing) pop() (tail int32) {
	w.done++
	if len(w.tails) == 0 {
		return 0
	}
	tail, w.tails[w.head] = w.tails[w.head], 0
	w.head = (w.head + 1) & (len(w.tails) - 1)
	return tail
}

// causalDeliver handles a UPD carrying a cauhist at a follower: apply it if
// its happens-before history is already applied here, otherwise buffer it
// (Figure 2f shows d2 buffered until d1 arrives). p is the UPD's box; a
// buffered update holds a reference on it, so it outlives its handler.
func (r *Replica) causalDeliver(p *payload) {
	src := p.Stamp.Node()
	if r.appliedVC[src] >= p.Cauhist[src] {
		return // duplicate delivery of an already-applied update
	}
	if r.causalApplicable(src, p.Cauhist) {
		r.causalApply(p.Key, p.Stamp, p.Scope)
		return
	}
	r.M.BufferedUpdates++
	r.M.BufferSum += uint64(r.bufCount)
	r.hold(p)
	r.fileBuffered(r.arena.bufs.Put(p))
	if r.bufCount > r.M.BufferPeak {
		r.M.BufferPeak = r.bufCount
	}
}

// causalApplicable reports whether an update from src with history vc can be
// applied: it must be src's next write, and every other dependency must
// already be applied locally.
func (r *Replica) causalApplicable(src int, vc vclock.VC) bool {
	for i, v := range vc {
		if i == src {
			if v != r.appliedVC[i]+1 {
				return false
			}
		} else if v > r.appliedVC[i] {
			return false
		}
	}
	return true
}

// fileBuffered parks the update held in bufs slot b under its first
// unsatisfied dependency. If every dependency is already satisfied it frees
// the slot, applies the update (or drops a stale duplicate) and releases its
// box.
func (r *Replica) fileBuffered(b int32) {
	p := *r.arena.bufs.At(b)
	src := p.Stamp.Node()
	for i, v := range p.Cauhist {
		need := v
		if i == src {
			need = v - 1
		}
		if r.appliedVC[i] < need {
			r.arena.bufs.Link(r.waiting[i].at(need), b)
			r.bufCount++
			return
		}
	}
	r.arena.bufs.Take(b)
	if r.appliedVC[src] < p.Cauhist[src] {
		r.causalApply(p.Key, p.Stamp, p.Scope)
	}
	r.release(p)
}

// advanceApplied increments the applied vector for node and re-evaluates
// every update that was waiting on the new count. The drain loop is
// iterative: re-evaluations can cascade (a chain of dependent updates
// unblocking serially) and must not recurse. Every increment queues its
// node and is visited, each node's in count order, so the visit pops the
// front of the node's waitRing.
func (r *Replica) advanceApplied(node int) {
	r.appliedVC[node]++
	r.drainQueue = append(r.drainQueue, node)
	if r.draining {
		return
	}
	r.draining = true
	// Drain by index: re-evaluations append to the queue while it drains.
	for i := 0; i < len(r.drainQueue); i++ {
		tail := r.waiting[r.drainQueue[i]].pop()
		for head := r.arena.bufs.Detach(&tail); head != 0; {
			b := head
			head = *r.arena.bufs.Next(b)
			r.bufCount--
			r.fileBuffered(b)
		}
	}
	r.drainQueue = r.drainQueue[:0]
	r.draining = false
}

// causalApply makes the update visible, then arranges its durability and
// the applied-vector advance (persistCausalApply).
func (r *Replica) causalApply(key uint64, st Stamp, scope uint64) {
	r.applyVisible(key, st)
	r.persistCausalApply(key, st, scope)
}

// AppliedVC exposes the applied vector for tests and recovery tooling.
func (r *Replica) AppliedVC() vclock.VC { return r.appliedVC.Clone() }
