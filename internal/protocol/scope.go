package protocol

import "repro/internal/sim"

// Scope persistency's barrier: writes queue under their scope id
// (persistBackground, core.PersistAtScope) and the [PERSIST]s barrier of
// Figure 5 flushes a scope on every replica, with its PERSIST/ACK_p/VAL_p
// exchange. The ClientPersistScope entry point starts it.

// scopeOp tracks an in-flight scope persist barrier at its coordinator.
type scopeOp struct {
	acks  int
	local bool
	done  completion
}

// scopeIsClosed reports whether scope's barrier already ran at this node. A
// scope id is session<<32 | seq with seq rising by one per barrier, and a
// session issues barrier seq+1 only after barrier seq completed — that is,
// after every replica flushed it (TestScopeBarriersArriveInSessionOrder). So
// each replica sees a session's barriers in seq order, and one high-water
// mark per session says exactly which of its scopes are closed: the table
// stays O(sessions) however many scopes a run closes.
func (r *Replica) scopeIsClosed(scope uint64) bool {
	hw, ok := r.scopeClosed[uint32(scope>>32)]
	return ok && uint32(scope) <= hw
}

// deferScopePersist queues a write for its scope's persist barrier. Writes
// arriving after the barrier already ran (possible under weak consistency)
// persist immediately so durability is never silently skipped.
func (r *Replica) deferScopePersist(scope uint64, key uint64, st Stamp) {
	if r.scopeIsClosed(scope) {
		r.persist(key, st, cont{})
		return
	}
	items, open := r.scopePending[scope]
	if !open {
		if k := len(r.arena.itemFree); k > 0 {
			items, r.arena.itemFree = r.arena.itemFree[k-1], r.arena.itemFree[:k-1]
		} else {
			// A session's scope spans ScopeSize requests.
			items = sim.CarveList(&r.arena.items, r.p.ScopeSize, recordChunk)
		}
	}
	r.scopePending[scope] = append(items, persistItem{key: key, stamp: st})
}

// persistScope runs the coordinator's side of the [PERSIST]s barrier (see
// ClientPersistScope) once the request's worker time has elapsed.
func (r *Replica) persistScope(scope uint64, done completion) {
	r.scopeOps[scope] = scopeOp{acks: r.followers(), done: done}
	r.broadcast(payload{Kind: MsgPERSIST, Scope: scope})
	r.persistScopeLocal(scope, cont{kind: contScopeLocal, arg: scope})
	if so, ok := r.scopeOps[scope]; ok {
		r.scopeProgress(scope, so)
	}
}

// persistScopeLocal persists everything this node buffered for the scope and
// marks the scope closed; then (which counts the flush) runs once it is all
// durable.
func (r *Replica) persistScopeLocal(scope uint64, then cont) {
	items := r.scopePending[scope]
	delete(r.scopePending, scope)
	if session, seq := uint32(scope>>32), uint32(scope); seq >= r.scopeClosed[session] {
		r.scopeClosed[session] = seq
	}
	r.persistItems(items, then)
	if items != nil {
		r.arena.itemFree = append(r.arena.itemFree, items[:0])
	}
}

// onPERSIST handles the scope barrier at a follower.
func (r *Replica) onPERSIST(from int, p *payload) {
	r.persistScopeLocal(p.Scope, cont{kind: contScopeAck, node: int32(from), arg: p.Scope})
}

// onScopeAck collects a follower's scope ACK_p at the coordinator.
func (r *Replica) onScopeAck(scope uint64) {
	if so, ok := r.scopeOps[scope]; ok {
		so.acks--
		r.scopeProgress(scope, so)
	}
}

// scopeProgress records a barrier's new state so, or — once the local flush
// and every follower's ACK_p are in — finishes it: VAL_p, then the client.
func (r *Replica) scopeProgress(scope uint64, so scopeOp) {
	if !so.local || so.acks != 0 {
		r.scopeOps[scope] = so
		return
	}
	delete(r.scopeOps, scope)
	r.broadcast(payload{Kind: MsgVALp, Scope: scope})
	so.done.fire(0)
}

// ScopeBacklog returns how many writes are queued for scope barriers at this
// node (a durability-exposure metric).
func (r *Replica) ScopeBacklog() int {
	total := 0
	for _, items := range r.scopePending {
		total += len(items)
	}
	return total
}
