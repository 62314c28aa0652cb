package protocol

// eventualDur implements Eventual persistency: an update becomes durable
// sometime in the future (Table 2). Every persist is scheduled after a lazy
// delay and nothing in the protocol ever waits for NVM.
type eventualDur struct{}

// lazyPersist persists (key, st) after the lazy delay.
func (r *Replica) lazyPersist(key uint64, st Stamp) {
	r.after(r.p.LazyPersist, cont{kind: contPersist}, key, st)
}

func (eventualDur) onStrongWriteLaunch(r *Replica, pw *pendingWrite) {
	r.launchStrongWrite(pw)
}

func (eventualDur) startLocalDurability(r *Replica, pw *pendingWrite) {
	r.lazyPersist(pw.key, pw.stamp)
	pw.localPersist = true
}

func (eventualDur) onLocalPersist(r *Replica, pw *pendingWrite) {}

func (eventualDur) onInvReceive(r *Replica, from int, p *payload) {
	r.applyVisible(p.Key, p.Stamp)
	r.send(from, payload{Kind: MsgACKc, Stamp: p.Stamp, Txn: p.Txn})
	r.lazyPersist(p.Key, p.Stamp)
}

func (eventualDur) onConsistencyAcked(r *Replica, pw *pendingWrite) { consAckedValidateC(r, pw) }

func (eventualDur) onPersistAck(r *Replica, pw *pendingWrite) {}

func (eventualDur) onWeakWrite(r *Replica, pw *pendingWrite, key uint64, st Stamp, scope uint64) bool {
	r.lazyPersist(key, st)
	r.selfApplyCausal()
	return true
}

func (eventualDur) onCausalApply(r *Replica, p payload, src int) {
	r.lazyPersist(p.Key, p.Stamp)
	r.advanceApplied(src)
}

func (eventualDur) onFollowerUpdate(r *Replica, from int, p *payload) {
	r.lazyPersist(p.Key, p.Stamp)
}
