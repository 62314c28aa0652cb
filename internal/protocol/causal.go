package protocol

import (
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
func (causalVis) onInvReceive(r *Replica, ks *keyState, from int, p payload) bool { return true }

func (causalVis) readBlocked(r *Replica, ks *keyState) bool { return false }
func (causalVis) servesCommitted() bool                     { return false }

// causalHistory snapshots the write's happens-before history: everything
// this node has applied, plus the write itself.
func (causalVis) causalHistory(r *Replica) []uint64 {
	r.issued++
	vc := r.appliedVC.Clone()
	vc[r.id] = r.issued
	return vc
}

func (causalVis) propagateWeak(r *Replica, upd payload) { r.propagate(upd) }

// onUpdate routes the UPD through the reorder buffer.
func (causalVis) onUpdate(r *Replica, from int, p payload) {
	r.causalDeliver(from, p)
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

// causalDeliver handles a UPD carrying a cauhist at a follower: apply it if
// its happens-before history is already applied here, otherwise buffer it
// (Figure 2f shows d2 buffered until d1 arrives).
func (r *Replica) causalDeliver(from int, p payload) {
	_ = from
	src := p.Stamp.Node()
	if r.appliedVC[src] >= p.Cauhist[src] {
		return // duplicate delivery of an already-applied update
	}
	if r.causalApplicable(src, p.Cauhist) {
		r.causalApply(p)
		return
	}
	r.M.BufferedUpdates++
	r.M.BufferSum += uint64(r.bufCount)
	r.fileBuffered(bufferedUpd{key: p.Key, stamp: p.Stamp, scope: p.Scope, vc: p.Cauhist})
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

// fileBuffered parks an update under its first unsatisfied dependency.
// If every dependency is already satisfied it applies (or drops a stale
// duplicate) immediately.
func (r *Replica) fileBuffered(u bufferedUpd) {
	src := u.stamp.Node()
	for i, v := range u.vc {
		need := v
		if i == src {
			need = v - 1
		}
		if r.appliedVC[i] < need {
			if r.waiting[i] == nil {
				r.waiting[i] = make(map[uint64]int32)
			}
			tail := r.waiting[i][need]
			r.bufs.push(&tail, u)
			r.waiting[i][need] = tail
			r.bufCount++
			return
		}
	}
	if r.appliedVC[src] >= u.vc[src] {
		return // stale duplicate
	}
	r.causalApply(payload{Kind: MsgUPD, Key: u.key, Stamp: u.stamp, Scope: u.scope, Cauhist: u.vc})
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
		for head := r.bufs.detach(&tail); head != 0; {
			r.bufCount--
			r.fileBuffered(r.bufs.pop(&head))
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
func (r *Replica) causalApply(p payload) {
	r.applyVisible(p.Key, p.Stamp)
	r.dur.onCausalApply(r, p, p.Stamp.Node())
}

// AppliedVC exposes the applied vector for tests and recovery tooling.
func (r *Replica) AppliedVC() vclock.VC { return r.appliedVC.Clone() }
