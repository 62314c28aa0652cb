package protocol

// strongVis is the shared behavior of the non-transactional strong
// consistency models (Linearizable, Read-Enforced): writes run the
// INV/ACK/VAL broadcast, reads stall on unvalidated writes, and lazy UPDs
// (the eventual tier of a hybrid deployment) apply last-writer-wins.
type strongVis struct{}

func (strongVis) dispatchWrite(r *Replica, key, scope, txn uint64, done completion) {
	r.strongWrite(key, scope, txn, done)
}

// onStrongWriteLaunch marks the write consistency-transient so reads to the
// key stall until validation; Read-Enforced persistency additionally tracks
// it until VAL_p (Figure 3).
func (strongVis) onStrongWriteLaunch(r *Replica, ks *keyState, key uint64, st Stamp, txn uint64) {
	r.arena.stamps.add(&ks.transC, st)
	if r.rules.SplitAcks {
		r.arena.stamps.add(&ks.transP, st)
	}
}

// onInvReceive mirrors the coordinator's transient bookkeeping at the
// follower.
func (strongVis) onInvReceive(r *Replica, ks *keyState, from int, p *payload) bool {
	r.arena.stamps.add(&ks.transC, p.Stamp)
	if r.rules.SplitAcks {
		r.arena.stamps.add(&ks.transP, p.Stamp)
	}
	return true
}

// The weak-write hooks are unreachable under strong consistency — writes
// never take the UPD path — but keep safe defaults.
func (strongVis) causalHistory(r *Replica) []uint64     { return nil }
func (strongVis) propagateWeak(r *Replica, upd payload) { r.propagate(upd) }

// onUpdate applies a lazy UPD from a remote hybrid group last-writer-wins.
func (strongVis) onUpdate(r *Replica, from int, p *payload) {
	r.applyVisible(p.Key, p.Stamp)
	r.persistFollowerUpdate(from, p)
}

func (strongVis) selfApply(r *Replica) {}

// linearizableVis implements Linearizable consistency: an update is visible
// with respect to all nodes when it takes place (Table 2) — the write
// completes only after every replica acknowledged and the VAL went out.
type linearizableVis struct{ strongVis }
