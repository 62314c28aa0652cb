package protocol

import (
	"slices"

	"repro/internal/vclock"
)

// causalVis implements Causal consistency: an update is visible with respect
// to a node when the node has observed everything the update causally
// depends on (Table 2). Writes complete locally and carry a cauhist vector;
// followers apply through the reorder buffer below.
type causalVis struct{}

func (causalVis) usesInvAckVal() bool { return false }

func (causalVis) dispatchWrite(r *Replica, key, scope, txn uint64, done completion) {
	r.weakWrite(key, scope, done)
}

func (causalVis) earlyWriteCompletion() bool { return false }

// The strong-write hooks are unreachable — causal writes never run the
// INV/ACK/VAL broadcast.
func (causalVis) onStrongWriteLaunch(r *Replica, ks *keyState, key uint64, st Stamp, txn uint64) {
}
func (causalVis) onInvReceive(r *Replica, ks *keyState, from int, p *payload) bool { return true }

func (causalVis) readBlocked(r *Replica, ks *keyState) bool { return false }
func (causalVis) servesCommitted() bool                     { return false }

// causalHistory snapshots the write's happens-before history: everything
// this node has applied, plus the write itself. The snapshot is the replica's
// histOut, valid until its next write; the send boxes a copy.
func (causalVis) causalHistory(r *Replica) []uint64 {
	r.issued++
	r.histOut = append(r.histOut[:0], r.appliedVC...)
	r.histOut[r.id] = r.issued
	return r.histOut
}

func (causalVis) propagateWeak(r *Replica, upd payload) { r.propagate(upd) }

// onUpdate routes the UPD through the reorder buffer.
func (causalVis) onUpdate(r *Replica, from int, p *payload) {
	r.causalDeliver(p)
}

// selfApply advances the applied vector for the coordinator's own write at
// its visibility/durability point, draining dependents it unblocks.
func (causalVis) selfApply(r *Replica) { r.advanceApplied(r.id) }

// The causal reorder buffer is indexed, not scanned: every parked update is
// filed under the first (node, count) dependency it is waiting for, and is
// re-evaluated exactly when the local applied vector reaches that count.
// Each update is re-filed at most once per vector component, so delivery
// work is O(components) amortized — a flat scan per apply degrades to
// O(buffer^2) under Synchronous persistency, whose persist-gated applies
// grow the buffer by orders of magnitude (Section 8.1.2).

// advance is one queued applied-vector increment awaiting drain.
type advance struct {
	node int
	v    uint64
}

// histRows stores the causal histories of buffered updates in replica-owned
// memory, one row of w counters per token of the bufs slab it shadows: row t
// is data[(t-1)*w : t*w], so a row lives exactly as long as its slot, and the
// arena grows with the slab, by use. Refer to a row by token: a slice from
// row is read before anything can set a higher token (set may move the
// arena), never kept in a record.
type histRows struct {
	w    int
	data []uint64
}

// set copies vc into row t.
func (h *histRows) set(t int32, vc []uint64) {
	end := int(t) * h.w
	if end > len(h.data) {
		h.data = slices.Grow(h.data, end-len(h.data))[:end]
	}
	copy(h.data[end-h.w:end], vc)
}

// row returns the history in row t.
func (h *histRows) row(t int32) vclock.VC {
	end := int(t) * h.w
	return h.data[end-h.w : end : end]
}

// causalDeliver handles a UPD carrying a cauhist at a follower: apply it if
// its happens-before history is already applied here, otherwise buffer it
// (Figure 2f shows d2 buffered until d1 arrives). The history is read in the
// UPD's box; a buffered update outlives its box, so it keeps a copy.
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
	i := r.bufs.Put(bufferedUpd{key: p.Key, stamp: p.Stamp, scope: p.Scope})
	r.bufHist.set(i, p.Cauhist)
	r.fileBuffered(i)
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
// the slot and applies (or drops a stale duplicate) immediately.
func (r *Replica) fileBuffered(b int32) {
	src := r.bufs.At(b).stamp.Node()
	vc := r.bufHist.row(b)
	for i, v := range vc {
		need := v
		if i == src {
			need = v - 1
		}
		if r.appliedVC[i] < need {
			if r.waiting[i] == nil {
				r.waiting[i] = make(map[uint64]int32)
			}
			tail := r.waiting[i][need]
			r.bufs.Link(&tail, b)
			r.waiting[i][need] = tail
			r.bufCount++
			return
		}
	}
	stale := r.appliedVC[src] >= vc[src]
	u := r.bufs.Take(b) // after the last read of the history
	if stale {
		return // stale duplicate
	}
	r.causalApply(u.key, u.stamp, u.scope)
}

// advanceApplied increments the applied vector for node and re-evaluates
// every update that was waiting on the new count. The drain loop is
// iterative: re-evaluations can cascade (a chain of dependent updates
// unblocking serially) and must not recurse.
func (r *Replica) advanceApplied(node int) {
	r.appliedVC[node]++
	r.drainQueue = append(r.drainQueue, advance{node: node, v: r.appliedVC[node]})
	if r.draining {
		return
	}
	r.draining = true
	// Drain by index: re-evaluations append to the queue while it drains.
	for i := 0; i < len(r.drainQueue); i++ {
		a := r.drainQueue[i]
		tail, ok := r.waiting[a.node][a.v]
		if !ok {
			continue
		}
		delete(r.waiting[a.node], a.v)
		for head := r.bufs.Detach(&tail); head != 0; {
			b := head
			head = *r.bufs.Next(b)
			r.bufCount--
			r.fileBuffered(b)
		}
	}
	r.drainQueue = r.drainQueue[:0]
	r.draining = false
}

// causalApply makes the update visible and arranges durability. Under
// Synchronous (and Strict) persistency the visibility point and durability
// point coincide, so the applied vector — which gates causally dependent
// updates — only advances once the persist completes. That persist gating is
// what makes Causal+Synchronous buffer one to two orders of magnitude more
// writes than Causal+Eventual (Section 8.1.2).
func (r *Replica) causalApply(key uint64, st Stamp, scope uint64) {
	r.applyVisible(key, st)
	r.dur.onCausalApply(r, payload{Kind: MsgUPD, Key: key, Stamp: st, Scope: scope}, st.Node())
}

// AppliedVC exposes the applied vector for tests and recovery tooling.
func (r *Replica) AppliedVC() vclock.VC { return r.appliedVC.Clone() }
