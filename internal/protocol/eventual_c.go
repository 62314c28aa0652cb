package protocol

// eventualVis implements Eventual consistency: an update becomes visible at
// each node sometime in the future (Table 2). Writes complete locally, UPDs
// propagate after a lazy delay (Figure 2g), and followers apply them in
// arrival order, last-writer-wins.
type eventualVis struct{}

func (eventualVis) dispatchWrite(r *Replica, key, scope, txn uint64, done completion) {
	r.weakWrite(key, scope, done)
}

// The strong-write hooks are unreachable — eventual writes never run the
// INV/ACK/VAL broadcast.
func (eventualVis) onStrongWriteLaunch(r *Replica, ks *keyState, key uint64, st Stamp, txn uint64) {
}
func (eventualVis) onInvReceive(r *Replica, ks *keyState, from int, p *payload) bool { return true }

func (eventualVis) causalHistory(r *Replica) []uint64 { return nil }

// propagateWeak delays the UPD send (Figure 2g).
func (eventualVis) propagateWeak(r *Replica, upd payload) {
	r.after(r.p.EventualLag, cont{kind: contPropagate, arg: upd.Scope}, upd.Key, upd.Stamp)
}

// onUpdate applies in arrival order, last-writer-wins.
func (eventualVis) onUpdate(r *Replica, from int, p *payload) {
	r.applyVisible(p.Key, p.Stamp)
	r.dur.onFollowerUpdate(r, from, p)
}

func (eventualVis) selfApply(r *Replica) {}
