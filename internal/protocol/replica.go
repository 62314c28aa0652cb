package protocol

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/memhier"
	"repro/internal/nvm"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/vclock"
)

// Membership describes the replica group a replica belongs to: a contiguous
// block of global simnet node IDs [Base, Base+Size), with this replica at
// position Rank within the block. Every protocol-level node reference —
// stamps, vector clocks, ACK targets, hybrid sub-groups, propagation rings —
// is a rank in [0, Size); only the network boundary (send/receive) translates
// between ranks and global node IDs. The zero value denotes the paper's flat
// cluster: one group spanning all P.Servers nodes, where rank == global ID.
type Membership struct {
	Base int // first global node ID of the group
	Size int // replicas in the group
	Rank int // this replica's rank within the group
}

// global returns the global node ID of the group member at rank.
func (m Membership) global(rank int) int { return m.Base + rank }

// rankOf returns the group rank of a global node ID.
func (m Membership) rankOf(node int) int { return node - m.Base }

// Deps bundles everything a Replica needs from its node.
type Deps struct {
	Eng     *sim.Engine
	P       params.Params
	Model   core.Model
	Net     *simnet.Network
	NVM     *nvm.Device
	Mem     *memhier.Hierarchy
	Workers *sim.Pool

	// Store is the KV engine the replica models: a request's compute scales
	// by its OpCost (0 in the zero Profile), a scan walks keys in its order.
	Store engines.Profile

	// Member is the replica group this replica runs its protocol over. The
	// zero value means the flat paper cluster: all P.Servers nodes form one
	// group and the replica's rank is its global node ID. Sharded clusters
	// pass one group per shard so broadcasts, acknowledgment counts, and
	// causal vector clocks stay group-scoped.
	Member Membership

	// Keys, when non-nil, is the index of the keys Member's shard owns: the
	// replica then holds per-key state for those keys only. Nil (the flat
	// group, where every replica sees every key) keeps one slot per key.
	Keys *KeyIndex

	// Trace, when non-nil, receives every protocol action at this replica as
	// an Event. Nil disables tracing.
	Trace func(Event)

	// AtomicRefs makes shared-payload refcounts atomic. Required when
	// replicas run on concurrent logical processes (a broadcast box is
	// decremented by several receivers); the sequential cluster leaves it
	// off to keep the plain decrement on the message hot path.
	AtomicRefs bool

	// Arena holds the record recyclers and payload boxes of the replicas
	// that share a logical process: a sequential cluster passes one arena to
	// all of its replicas. Nil, or AtomicRefs set (each replica on a logical
	// process of its own), gives the replica its own arena.
	Arena *Arena
}

// keyState is a key's slot at one replica, and the replica's only record of
// the key's version: visible is what the volatile store holds (a read serves
// it, a crash loses it), persisted what the NVM image holds (what a crash
// keeps). Everything else a key holds only while something is in flight on
// it — a write-back, waiting continuations, stalled reads, unvalidated
// stamps — sits in its busy record, named by busy (0 while the key is idle),
// so every key costs its replica 24 B and a busy one 48 more in the arena.
type keyState struct {
	visible   Stamp // stamp of the current visible (volatile) version
	persisted Stamp // stamp of the latest locally persisted version
	busy      int32 // token of the key's busyKey in Arena.busy; 0 = idle
}

// pendingWrite tracks a coordinator-side in-flight write. Records recycle
// through Arena.pws; continuations name a write by its stamp and look it
// up in Replica.pending, never by pointer.
type pendingWrite struct {
	key          uint64
	stamp        Stamp
	scope, txn   uint64     // the write's persist scope and transaction (0 = none)
	cAcks        int        // consistency acks still expected
	pAcks        int        // persistency acks still expected
	localPersist bool       // local persist finished
	broadcastAt  int64      // when INV went out (stall accounting)
	done         completion // the client's; zero once delivered
	early        bool       // completion already delivered to the client
	sim.Link[pendingWrite]
}

// persistItem is a deferred persist (scope or transaction).
type persistItem struct {
	key   uint64
	stamp Stamp
}

// Replica is one node's protocol engine. It acts as coordinator for requests
// submitted locally and as follower for everything else.
type Replica struct {
	id     int        // rank within the replica group (protocol identity)
	gid    int        // global simnet node ID (network identity)
	member Membership // the replica group this node runs its protocol over
	eng    *sim.Engine
	p      params.Params
	model  core.Model
	rules  core.Rules // the binding's rules, resolved at construction
	net    *simnet.Network
	work   *sim.Pool
	mem    *memhier.Hierarchy
	dev    *nvm.Device
	store  engines.Profile

	// M collects this replica's protocol metrics.
	M Metrics

	lamport uint64
	keys    keyTable
	pending map[Stamp]*pendingWrite

	// arena holds every record this replica recycles (see Arena); contC runs
	// the continuations parked in its conts.
	arena *Arena
	contC contDone

	// Causal consistency state. The reorder buffer holds each out-of-order
	// update parked at this follower as its UPD's payload box, on which it
	// holds a reference until it applies (see causalDeliver), sharing the
	// body and history with every other receiver that buffers it.
	// waiting[node] indexes the buffer by first unsatisfied dependency: it
	// holds the FIFOs (in arena.bufs) of updates that become eligible as
	// appliedVC[node] reaches each count. histOut is the history this
	// replica's next write sends (boxes copy it).
	appliedVC  vclock.VC // per-writer applied counters
	issued     uint64    // own writes issued (stamps cauhist)
	histOut    vclock.VC
	waiting    []waitRing
	bufCount   int
	drainQueue []int // nodes whose applied count rose, awaiting drain
	draining   bool

	// Transactional state: txns is built under Transactional consistency
	// only (a nil map reads as empty).
	txns   map[uint64]*txnState
	txnSeq uint64

	// Scope persistency state, built under Scope persistency only.
	// scopeClosed is each session's closed high-water mark (see
	// scopeIsClosed).
	scopePending map[uint64][]persistItem
	scopeClosed  map[uint32]uint32
	scopeOps     map[uint64]scopeOp

	atomicRefs bool // see Deps.AtomicRefs
	tracer     func(Event)

	// watch, when set by a test, sees each received message as it parks and
	// again as its handler reads it, under its disp token.
	watch func(tok int32, p *payload)

	// persC dispatches coalesced write-back completions (see issuePersist);
	// ablC completes the NoPersistCoalescing ablation's per-update device
	// writes, whose records park in conts.
	persC persistDone
	ablC  ablationDone
}

// dispatchRec parks one received message across its worker service job: the
// box it arrived in, which this receiver's reference keeps from being reused,
// and the sender's group rank.
type dispatchRec struct {
	p    *payload
	from int32
}

// ablationDone completes a NoPersistCoalescing device write: install the
// stamp, wake waiters, run the continuation.
type ablationDone struct{ r *Replica }

func (a *ablationDone) OnEvent(tok uint64) {
	r := a.r
	rec := r.arena.conts.Take(int32(tok))
	ks := r.keys.at(rec.key)
	if rec.st > ks.persisted {
		ks.persisted = rec.st
	}
	if ks.busy != 0 {
		r.wake(&r.arena.busy.At(ks.busy).persWait)
		r.settle(ks)
	}
	r.run(rec.c, rec.key, rec.st)
}

// NewReplica builds the protocol engine for global node id and registers its
// network handler. With a zero Deps.Member the replica joins the flat
// all-servers group (rank == id); otherwise id must be the global node ID at
// d.Member's base+rank.
func NewReplica(id int, d Deps) *Replica {
	mem := d.Member
	if mem.Size == 0 {
		mem = Membership{Base: 0, Size: d.P.Servers, Rank: id}
	}
	if mem.global(mem.Rank) != id {
		panic(fmt.Sprintf("protocol: node %d is not rank %d of group [%d,%d)",
			id, mem.Rank, mem.Base, mem.Base+mem.Size))
	}
	r := &Replica{
		id:         mem.Rank,
		gid:        id,
		member:     mem,
		eng:        d.Eng,
		p:          d.P,
		model:      d.Model,
		rules:      core.RulesOf(d.Model),
		net:        d.Net,
		work:       d.Workers,
		mem:        d.Mem,
		dev:        d.NVM,
		store:      d.Store,
		keys:       newKeyTable(d.P.Keys, d.Keys),
		pending:    make(map[Stamp]*pendingWrite),
		appliedVC:  vclock.New(mem.Size),
		atomicRefs: d.AtomicRefs,
		tracer:     d.Trace,
	}
	if r.arena = d.Arena; r.arena == nil || d.AtomicRefs {
		r.arena = new(Arena)
	}
	// Build only the maps the binding writes.
	if r.rules.ServesCommitted {
		r.txns = make(map[uint64]*txnState)
		r.keys.txn = make([]txnKey, d.P.Keys)
	}
	if r.rules.Persist == core.PersistAtScope {
		r.scopePending = make(map[uint64][]persistItem)
		r.scopeClosed = make(map[uint32]uint32)
		r.scopeOps = make(map[uint64]scopeOp)
	}
	if r.rules.CausalOrder { // only Causal consistency buffers updates
		r.waiting = make([]waitRing, mem.Size)
	}
	r.persC.r = r
	r.ablC.r = r
	r.contC.r = r
	d.Net.Register(id, r.onMessage)
	return r
}

// emit stamps e with the time and this node and hands it to the trace sink.
// Every caller checks r.tracer != nil first, so an untraced run builds no
// event. It stays out of line: inlined into the fourteen tracing sites, it
// grew the message and client-op handlers that every untraced run executes.
//
//go:noinline
func (r *Replica) emit(e Event) {
	e.At, e.Node = r.eng.Now(), r.gid
	r.tracer(e)
}

// ID returns the replica's global node id.
func (r *Replica) ID() int { return r.gid }

// Member returns the replica group this node belongs to.
func (r *Replica) Member() Membership { return r.member }

// Arena returns the arena this replica's records and payload boxes come
// from.
func (r *Replica) Arena() *Arena { return r.arena }

// Model returns the DDP model this replica runs.
func (r *Replica) Model() core.Model { return r.model }

// VisibleVersion returns the stamp of key's current visible version.
func (r *Replica) VisibleVersion(key uint64) Stamp {
	if ks := r.keys.find(key); ks != nil {
		return ks.visible
	}
	return 0
}

// PersistedVersion returns the stamp of key's latest persisted version.
func (r *Replica) PersistedVersion(key uint64) Stamp {
	if ks := r.keys.find(key); ks != nil {
		return ks.persisted
	}
	return 0
}

// Versions calls fn, in key order, with the visible and persisted stamps of
// every key this replica holds a version of — its volatile store and its NVM
// image, for recovery tooling.
func (r *Replica) Versions(fn func(key uint64, visible, persisted Stamp)) {
	for k := uint64(0); k < uint64(r.p.Keys); k++ {
		if ks := r.keys.find(k); ks != nil && (ks.visible != 0 || ks.persisted != 0) {
			fn(k, ks.visible, ks.persisted)
		}
	}
}

// BufferLen returns the current causal reorder-buffer length.
func (r *Replica) BufferLen() int { return r.bufCount }

// nextStamp advances the Lamport clock and stamps a new local write.
func (r *Replica) nextStamp() Stamp {
	r.lamport++
	return MakeStamp(r.lamport, r.id)
}

// observe merges a remote stamp into the Lamport clock.
func (r *Replica) observe(st Stamp) {
	if ts := st.TS(); ts > r.lamport {
		r.lamport = ts
	}
}

// followers returns how many other replicas must acknowledge a strong
// write: everyone in a flat cluster, only local-group peers under hybrid
// consistency (Section 9).
func (r *Replica) followers() int {
	return r.groupSize() - 1
}

// groupSize returns the number of nodes in this replica's hybrid group
// (its whole replica group when hybrid consistency is off).
func (r *Replica) groupSize() int {
	if r.p.Groups <= 1 {
		return r.member.Size
	}
	return r.member.Size / r.p.Groups
}

// send transmits one protocol message to the group member at rank to.
func (r *Replica) send(to int, p payload) {
	if r.tracer != nil {
		r.emit(Event{Kind: EvSend, Msg: p.Kind, Peer: r.member.global(to)})
	}
	r.net.Send(simnet.Message{
		From:    r.gid,
		To:      r.member.global(to),
		Size:    r.wireSize(p),
		Kind:    int(p.Kind),
		Payload: r.arena.boxes.box(p, 1),
	})
}

// propagate delivers a data-carrying message (INV or UPD) to every
// follower: by broadcast (the paper's design) or, under the
// SerialPropagation ablation, as a message that sequentially visits the
// replica nodes.
func (r *Replica) propagate(p payload) {
	if !r.p.SerialPropagation || r.groupSize() <= 2 {
		r.broadcast(p)
		return
	}
	p.Chain = true
	r.send(r.nextOnRing(), p)
}

// nextOnRing returns the next node of this replica's strong-consistency
// domain (its hybrid group, or the whole cluster when flat).
func (r *Replica) nextOnRing() int {
	g := r.groupSize()
	base := (r.id / g) * g
	return base + (r.id-base+1)%g
}

// forwardChain passes a serially-propagated message to the next replica on
// the ring, stopping before it would return to its origin. The send boxes a
// copy of the received body: a chain hop has one receiver, so no other
// handler shares the box it copies, refcount included.
func (r *Replica) forwardChain(p *payload) {
	next := r.nextOnRing()
	if next == p.Stamp.Node() {
		return
	}
	r.send(next, *p)
}

// broadcast transmits p to every follower in this replica's strong-
// consistency domain (its whole replica group, or the local hybrid group
// under hybrid consistency).
func (r *Replica) broadcast(p payload) {
	if r.p.Groups <= 1 {
		if r.tracer != nil {
			r.emit(Event{Kind: EvSendAll, Msg: p.Kind})
		}
		// One boxed payload serves every copy: BroadcastRange shares the
		// pointer, and the box's refcount lets the last receiver recycle it.
		r.net.BroadcastRange(simnet.Message{
			From:    r.gid,
			Size:    r.wireSize(p),
			Kind:    int(p.Kind),
			Payload: r.arena.boxes.box(p, r.member.Size-1),
		}, r.member.Base, r.member.Size, -1)
		return
	}
	g := r.member.Size / r.p.Groups
	base := (r.id / g) * g
	if r.tracer != nil {
		r.emit(Event{Kind: EvSendGroup, Msg: p.Kind})
		for to := base; to < base+g; to++ {
			if to != r.id {
				r.emit(Event{Kind: EvSend, Msg: p.Kind, Peer: r.member.global(to)})
			}
		}
	}
	r.net.BroadcastRange(simnet.Message{
		From:    r.gid,
		Size:    r.wireSize(p),
		Kind:    int(p.Kind),
		Payload: r.arena.boxes.box(p, g-1),
	}, r.member.global(base), g, -1)
}

// broadcastRemoteGroups lazily ships an update to every group member outside
// the local hybrid group (the eventual tier of a hybrid deployment): the
// contiguous rank blocks below and above the local group, each a fused
// group-scoped broadcast sharing one payload box.
func (r *Replica) broadcastRemoteGroups(p payload) {
	if r.p.Groups <= 1 {
		return
	}
	g := r.member.Size / r.p.Groups
	base := (r.id / g) * g
	for _, blk := range [2][2]int{{0, base}, {base + g, r.member.Size}} {
		lo, hi := blk[0], blk[1]
		if lo >= hi {
			continue
		}
		if r.tracer != nil {
			for to := lo; to < hi; to++ {
				r.emit(Event{Kind: EvSend, Msg: p.Kind, Peer: r.member.global(to)})
			}
		}
		r.net.BroadcastRange(simnet.Message{
			From:    r.gid,
			Size:    r.wireSize(p),
			Kind:    int(p.Kind),
			Payload: r.arena.boxes.box(p, hi-lo),
		}, r.member.global(lo), hi-lo, -1)
	}
}

// HandleNetMessage feeds a protocol message into the replica's receive path.
// NewReplica registers the replica's handler with the network directly;
// sharded clusters install a demultiplexer per node instead (client-routing
// messages share each NIC with protocol traffic) and forward protocol
// messages here.
func (r *Replica) HandleNetMessage(m simnet.Message) { r.onMessage(m) }

// onMessage is the network receive entry point: it parks the message, still
// in its box, and charges a worker for the handling cost; the worker's
// completion dispatches it (OnEvent). Message From/To are global node IDs;
// the dispatch records carry the sender's group rank.
func (r *Replica) onMessage(m simnet.Message) {
	pp := m.Payload.(*payload)
	tok := r.arena.disp.Put(dispatchRec{p: pp, from: int32(r.member.rankOf(m.From))})
	if r.watch != nil {
		r.watch(tok, pp)
	}
	service := r.p.MessageHandle
	if pp.Kind == MsgINV || pp.Kind == MsgUPD {
		service += r.mem.DDIOFillLatency()
	}
	r.work.AcquireEvent(service, r, uint64(tok))
}

// OnEvent dispatches the message parked at token arg straight from its box.
// It implements sim.Handler so message handling schedules without a closure
// per message. A box is spent when its last reference is released — the last
// receiver's handler returns, or the last update buffered in it applies: that
// holder recycles it into its own arena, where the next write reuses its
// history storage. Under concurrent logical processes the receivers of a
// broadcast read one box on different goroutines; handlers read its fields,
// not refs (a whole-struct copy would: forwardChain makes one only of a box
// no other receiver shares), and the atomic reference counts order each
// holder's reads before the last holder's put.
func (r *Replica) OnEvent(arg uint64) {
	rec := r.arena.disp.Take(int32(arg))
	pp := rec.p
	if r.watch != nil {
		r.watch(int32(arg), pp)
	}
	r.dispatch(int(rec.from), pp)
	r.release(pp)
}

// hold takes one more reference on box pp for a receiver that keeps it past
// its handler (a buffered causal update). The receiver still holds its
// message's reference, so the box cannot be spent meanwhile.
func (r *Replica) hold(pp *payload) {
	if r.atomicRefs {
		atomic.AddInt32(&pp.refs, 1)
	} else {
		pp.refs++
	}
}

// release drops one reference on box pp; the last holder puts it back in its
// own arena.
func (r *Replica) release(pp *payload) {
	if r.atomicRefs {
		if atomic.AddInt32(&pp.refs, -1) == 0 {
			r.arena.boxes.put(pp)
		}
	} else if pp.refs--; pp.refs == 0 {
		r.arena.boxes.put(pp)
	}
}

// dispatch runs the handler of a received message. p is its box, shared with
// the message's other receivers: handlers read it and never write it. What
// outlives the handler either holds a reference on the box (a buffered causal
// update) or is copied out (a send boxes its body anew).
func (r *Replica) dispatch(from int, p *payload) {
	if r.tracer != nil {
		r.emit(Event{Kind: EvRecv, Msg: p.Kind, Peer: from})
	}
	if !p.Stamp.IsZero() {
		r.observe(p.Stamp)
	}
	switch p.Kind {
	case MsgINV:
		r.onINV(from, p)
	case MsgACK:
		r.onACK(from, p)
	case MsgACKc:
		r.onACKc(p)
	case MsgACKp:
		r.onACKp(p)
	case MsgVAL, MsgVALc:
		r.onVAL(p)
	case MsgVALp:
		r.onVALp(p)
	case MsgUPD:
		r.onUPD(from, p)
	case MsgINITX:
		r.onINITX(from, p)
	case MsgENDX:
		r.onENDX(from, p)
	case MsgPERSIST:
		r.onPERSIST(from, p)
	case MsgNACK:
		r.onNACK(p)
	case MsgABORTX:
		r.onABORTX(p)
	default:
		panic(fmt.Sprintf("protocol: unhandled message kind %v", p.Kind))
	}
}

// applyVisible installs (key, st) as the visible version if newer and
// returns whether it did.
func (r *Replica) applyVisible(key uint64, st Stamp) bool {
	ks := r.keys.at(key)
	if st <= ks.visible {
		return false
	}
	ks.visible = st
	if r.tracer != nil {
		r.emit(Event{Kind: EvApply, Key: key, Stamp: st})
	}
	return true
}

// persist makes (key, st) durable; then (contNone for nothing) runs once a
// version at least as new as st is in NVM. Persists coalesce per key the way
// cacheline write-backs do: if a persist covering st is already durable or in
// flight, no new device write is issued — then just joins the in-flight
// completion. The persisted stamp advances monotonically.
func (r *Replica) persist(key uint64, st Stamp, then cont) {
	ks := r.keys.at(key)
	if r.p.NoPersistCoalescing {
		// Ablation: one device write per update, no write-back batching.
		r.M.Persists++
		r.dev.WriteEvent(key, &r.ablC, uint64(r.arena.conts.Put(contRec{key: key, st: st, c: then})))
		return
	}
	if st <= ks.persisted {
		if then.kind != contNone {
			r.after(0, then, key, st)
		}
		return
	}
	b := r.busyOf(ks)
	if then.kind != contNone {
		r.arena.conts.Push(&b.persistCbs, contRec{key: key, st: st, c: then})
	}
	if b.persistInFlight {
		if st > b.dirtyStamp {
			b.dirtyStamp = st
		}
		return
	}
	r.issuePersist(key, b, st)
}

// issuePersist puts one device write in flight covering stamp st, on key's
// busy record b; at completion it runs covered continuations and writes back
// again if the key got dirtier meanwhile.
func (r *Replica) issuePersist(key uint64, b *busyKey, st Stamp) {
	b.persistInFlight = true
	b.dirtyStamp = st
	b.issuedStamp = st
	r.M.Persists++
	if r.tracer != nil {
		r.emit(Event{Kind: EvPersist, Key: key, Stamp: st})
	}
	r.dev.WriteEvent(key, &r.persC, key)
}

// persistDone routes NVM write-back completions back to their replica
// closure-free: the token is the key, and its busyKey.issuedStamp remembers
// the covered stamp (at most one write-back per key is in flight).
type persistDone struct{ r *Replica }

func (pd *persistDone) OnEvent(key uint64) { pd.r.writeBackDone(key) }

// writeBackDone completes the in-flight coalesced persist for key: advance
// the persisted stamp, run covered continuations, wake stalled readers, and
// write back again if the key got dirtier meanwhile, then free the key's
// busy record if nothing is left in flight.
func (r *Replica) writeBackDone(key uint64) {
	ks := r.keys.at(key)
	b := r.arena.busy.At(ks.busy)
	st := b.issuedStamp
	b.persistInFlight = false
	if st > ks.persisted {
		ks.persisted = st
	}
	if r.tracer != nil {
		r.emit(Event{Kind: EvPersistDone, Key: key, Stamp: st})
	}
	// Detach before running: a continuation may re-enter persist() for this
	// key, and what it appends joins the entries this write-back leaves
	// uncovered, in the order they come up. A continuation may also take
	// records (moving the slab) or, covering everything left, free this one,
	// so each push looks the record up again.
	for head := r.arena.conts.Detach(&b.persistCbs); head != 0; {
		cb := r.arena.conts.Pop(&head)
		if cb.st <= ks.persisted {
			r.run(cb.c, key, cb.st)
		} else {
			r.arena.conts.Push(&r.busyOf(ks).persistCbs, cb)
		}
	}
	if ks.busy == 0 {
		return // freed by a continuation: nothing waits and nothing is owed
	}
	r.wake(&r.arena.busy.At(ks.busy).persWait)
	if b := r.arena.busy.At(ks.busy); b.dirtyStamp > ks.persisted && !b.persistInFlight {
		r.issuePersist(key, b, b.dirtyStamp)
	}
	r.settle(ks)
}

// wake resumes the reads stalled in the FIFO at *tail (a key's consWait or
// persWait). The list empties first, so tail is not read again: a read that
// is still blocked files itself again. The caller settles the key after.
func (r *Replica) wake(tail *int32) {
	for head := r.arena.waiters.Detach(tail); head != 0; {
		r.readAttempt(r.arena.waiters.Pop(&head))
	}
}

// readAttempt applies the binding's read rules to op's key, filing op as a
// waiter until every rule passes, then completes the read after the memory
// latency. Linearizable and Read-Enforced consistency stall on writes not yet
// validated (under Read-Enforced persistency, until VAL_p; Figure 3);
// Read-Enforced persistency under weak consistency stalls until the latest
// visible version is locally persisted (Figure 3 c-d).
func (r *Replica) readAttempt(op *clientOp) {
	key := op.key
	ks := r.keys.at(key)

	if r.rules.ReadsStallOnTransient && ks.busy != 0 {
		if b := r.arena.busy.At(ks.busy); b.transC != 0 || r.rules.SplitAcks && b.transP != 0 {
			if !op.stalled {
				op.stalled = true
				r.M.ReadStalls++
				if r.tracer != nil {
					r.emit(Event{Kind: EvReadStall, Key: key})
				}
			}
			r.arena.waiters.Push(&b.consWait, op)
			return
		}
	}
	if r.rules.ReadsWaitLocalPersist && ks.persisted < ks.visible {
		if !op.stalled {
			op.stalled = true
			r.M.ReadStalls++
			if r.tracer != nil {
				r.emit(Event{Kind: EvReadStallPersist, Key: key})
			}
		}
		r.arena.waiters.Push(&r.busyOf(ks).persWait, op)
		return
	}

	if op.stalled {
		r.M.ReadStallTime += r.eng.Now() - op.start
	}
	op.ver = r.readable(ks)
	if r.rules.ServesCommitted {
		// Operations may only see the effects of transactions that have
		// completed (Section 2.1): serve the latest committed version.
		op.ver = r.keys.txnAt(key).committed
	}
	r.eng.ScheduleEvent(r.mem.ReadLatency(), op, opReadDone)
}

// readable returns the version of ks a read or scan sees (zero: none yet):
// the visible one, or the persisted one when Synchronous/Strict persistency
// under weak consistency makes only persisted versions readable (Figure 2
// e-h).
func (r *Replica) readable(ks *keyState) Stamp {
	if r.rules.ServesPersisted {
		return ks.persisted
	}
	return ks.visible
}
