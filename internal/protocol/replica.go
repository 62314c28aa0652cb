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
	Vol     engines.Engine // volatile store image
	Img     engines.Engine // NVM store image (what survives a crash)

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

	// Trace, when non-nil, receives a description of every protocol action
	// at this replica (see internal/trace). Nil disables tracing.
	Trace func(node int, what string)

	// AtomicRefs makes shared-payload refcounts atomic. Required when
	// replicas run on concurrent logical processes (a broadcast box is
	// decremented by several receivers); the sequential cluster leaves it
	// off to keep the plain decrement on the message hot path.
	AtomicRefs bool
}

// keyState is the per-key protocol state at one replica.
type keyState struct {
	visible   Stamp // stamp of the current visible (volatile) version
	persisted Stamp // stamp of the latest locally persisted version

	// transC holds stamps INVed but not yet validated for consistency;
	// transP holds stamps not yet validated for persistency (VAL_p).
	transC map[Stamp]struct{}
	transP map[Stamp]struct{}

	consWait []func() // reads waiting for consistency validation
	persWait []func() // reads waiting for local persistence

	lockTxn   uint64 // transaction with an in-flight write to this key
	committed Stamp  // latest transactionally committed version (Xact only)

	// Write-back coalescing: at most one persist per key is in flight; newer
	// stamps arriving meanwhile mark the key dirty and ride the follow-up
	// write-back. Callbacks fire once their stamp is covered. issuedStamp is
	// the stamp the in-flight write covers (at most one, so it lives here
	// rather than in a per-write record); spareCbs is the double-buffer that
	// lets completion snapshot-and-swap persistCbs without reallocating.
	persistInFlight bool
	dirtyStamp      Stamp
	issuedStamp     Stamp
	persistCbs      []persistCb
	spareCbs        []persistCb
}

// persistCb defers a durability callback onto an in-flight coalesced persist.
type persistCb struct {
	st   Stamp
	done func()
}

func (ks *keyState) addTransC(st Stamp) {
	if ks.transC == nil {
		ks.transC = make(map[Stamp]struct{}, 2)
	}
	ks.transC[st] = struct{}{}
}

func (ks *keyState) addTransP(st Stamp) {
	if ks.transP == nil {
		ks.transP = make(map[Stamp]struct{}, 2)
	}
	ks.transP[st] = struct{}{}
}

// pendingWrite tracks a coordinator-side in-flight write.
type pendingWrite struct {
	key          uint64
	stamp        Stamp
	cAcks        int   // consistency acks still expected
	pAcks        int   // persistency acks still expected
	localPersist bool  // local persist finished
	valSent      bool  // consistency VAL broadcast done
	broadcastAt  int64 // when INV went out (stall accounting)
	clientDone   func(Stamp)
	early        bool // completion already delivered to the client
}

// persistItem is a deferred persist (scope or transaction).
type persistItem struct {
	key   uint64
	stamp Stamp
}

// bufferedUpd is an out-of-order causal update parked at a follower.
type bufferedUpd struct {
	key   uint64
	stamp Stamp
	scope uint64
	vc    vclock.VC
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
	vis    VisibilityPolicy // consistency dimension, resolved at construction
	dur    DurabilityPolicy // persistency dimension, resolved at construction
	net    *simnet.Network
	work   *sim.Pool
	mem    *memhier.Hierarchy
	dev    *nvm.Device
	vol    engines.Engine
	img    engines.Engine

	// M collects this replica's protocol metrics.
	M Metrics

	lamport uint64
	keys    keyTable
	pending map[Stamp]*pendingWrite

	// Causal consistency state. waiting indexes the reorder buffer by the
	// first unsatisfied dependency: waiting[node][count] holds updates that
	// become eligible when appliedVC[node] reaches count.
	appliedVC  vclock.VC // per-writer applied counters
	issued     uint64    // own writes issued (stamps cauhist)
	waiting    []map[uint64][]bufferedUpd
	bufCount   int
	drainQueue []advance
	draining   bool

	// Transactional state.
	txns   map[uint64]*txnState
	txnSeq uint64

	// Scope persistency state.
	scopePending map[uint64][]persistItem
	scopeClosed  map[uint64]bool
	scopeOps     map[uint64]*scopeOp

	sharedVal  []byte     // shared synthetic value payload (avoids allocation)
	slab       []payload  // chunked outgoing-payload storage (see boxPayload)
	pfree      []*payload // spent payload boxes, recycled by onMessage
	atomicRefs bool       // see Deps.AtomicRefs
	tracer     func(node int, what string)

	// Received messages parked across their worker-pool service job, in a
	// freelist-recycled slab so message dispatch schedules closure-free
	// (see onMessage / OnEvent).
	disp     []dispatchRec
	dispFree int32

	// persC dispatches coalesced write-back completions (see issuePersist).
	persC persistDone

	// Pooled persist records for the remaining device-write paths — the
	// NoPersistCoalescing ablation write-back and the transaction-boundary
	// persistEvent — parked across their NVM access in a freelist-recycled
	// slab so both issue closure-free (see persist / persistEvent).
	pev     []pevRec
	pevFree int32
	ablC    ablationDone
	pevC    persistEventDone

	// Read-path records: readFree recycles readOp pipeline records
	// (ClientRead) and rdone parks finished reads across their memory
	// latency so readAttempt completes closure-free.
	readFree  *readOp
	rdone     []readDoneRec
	rdoneFree int32
	rdoneC    readDoneC
}

// readDoneRec parks one completed read's result across its memory-latency
// event (see readAttempt).
type readDoneRec struct {
	key  uint64
	ver  Stamp
	done func(Stamp)
	next int32 // freelist link
}

// readDoneC delivers parked read results. It implements sim.Handler so the
// memory-latency delay schedules without allocating a closure.
type readDoneC struct{ r *Replica }

func (rd *readDoneC) OnEvent(tok uint64) {
	r := rd.r
	rec := &r.rdone[tok]
	key, ver, done := rec.key, rec.ver, rec.done
	*rec = readDoneRec{next: r.rdoneFree}
	r.rdoneFree = int32(tok)
	if r.tracer != nil {
		r.trace("RD k%d returns %v", key, ver)
	}
	done(ver)
}

// dispatchRec parks one received message across its worker service job.
type dispatchRec struct {
	from int32
	next int32 // freelist link
	p    payload
}

// pevRec parks one uncoalesced persist across its device write: the stamp
// the ablation write-back installs (unused by persistEvent) and the caller's
// completion callback.
type pevRec struct {
	key  uint64
	st   Stamp
	done func()
	next int32 // freelist link
}

// allocPev parks rec in the slab, returning its token.
func (r *Replica) allocPev(rec pevRec) int32 {
	ni := r.pevFree
	if ni >= 0 {
		r.pevFree = r.pev[ni].next
		r.pev[ni] = rec
	} else {
		r.pev = append(r.pev, rec)
		ni = int32(len(r.pev) - 1)
	}
	return ni
}

// freePev pops the slab record at tok back onto the freelist.
func (r *Replica) freePev(tok uint64) pevRec {
	rec := r.pev[tok]
	r.pev[tok] = pevRec{next: r.pevFree}
	r.pevFree = int32(tok)
	return rec
}

// ablationDone completes a NoPersistCoalescing device write: install the
// stamp, wake waiters, fire the callback.
type ablationDone struct{ r *Replica }

func (a *ablationDone) OnEvent(tok uint64) {
	r := a.r
	rec := r.freePev(tok)
	ks := r.keys.at(rec.key)
	if rec.st > ks.persisted {
		ks.persisted = rec.st
		r.img.Put(rec.key, engines.Item{Value: r.sharedVal, Version: uint64(rec.st)})
	}
	r.wakePersistWaiters(ks)
	if rec.done != nil {
		rec.done()
	}
}

// persistEventDone completes a transaction-boundary persist (persistEvent).
type persistEventDone struct{ r *Replica }

func (p *persistEventDone) OnEvent(tok uint64) {
	rec := p.r.freePev(tok)
	if rec.done != nil {
		rec.done()
	}
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
		id:           mem.Rank,
		gid:          id,
		member:       mem,
		eng:          d.Eng,
		p:            d.P,
		model:        d.Model,
		net:          d.Net,
		work:         d.Workers,
		mem:          d.Mem,
		dev:          d.NVM,
		vol:          d.Vol,
		img:          d.Img,
		keys:         newKeyTable(d.P.Keys, d.Keys),
		pending:      make(map[Stamp]*pendingWrite),
		appliedVC:    vclock.New(mem.Size),
		waiting:      make([]map[uint64][]bufferedUpd, mem.Size),
		txns:         make(map[uint64]*txnState),
		scopePending: make(map[uint64][]persistItem),
		scopeClosed:  make(map[uint64]bool),
		scopeOps:     make(map[uint64]*scopeOp),
		sharedVal:    make([]byte, d.P.ValueSize),
		atomicRefs:   d.AtomicRefs,
		tracer:       d.Trace,
		dispFree:     -1,
	}
	r.persC.r = r
	r.pevFree = -1
	r.ablC.r = r
	r.pevC.r = r
	r.rdoneFree = -1
	r.rdoneC.r = r
	r.vis, r.dur = resolvePolicies(d.Model)
	d.Net.Register(id, r.onMessage)
	return r
}

// trace emits a protocol event when tracing is enabled.
func (r *Replica) trace(format string, args ...interface{}) {
	if r.tracer == nil {
		return
	}
	r.tracer(r.gid, fmt.Sprintf(format, args...))
}

// ID returns the replica's global node id.
func (r *Replica) ID() int { return r.gid }

// Member returns the replica group this node belongs to.
func (r *Replica) Member() Membership { return r.member }

// Model returns the DDP model this replica runs.
func (r *Replica) Model() core.Model { return r.model }

// VolatileStore exposes the volatile engine image (for recovery tooling).
func (r *Replica) VolatileStore() engines.Engine { return r.vol }

// PersistedStore exposes the NVM engine image (what survives a crash).
func (r *Replica) PersistedStore() engines.Engine { return r.img }

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

// sameGroup reports whether the replica at rank node shares this replica's
// hybrid group.
func (r *Replica) sameGroup(node int) bool {
	if r.p.Groups <= 1 {
		return true
	}
	g := r.member.Size / r.p.Groups
	return node/g == r.id/g
}

// send transmits one protocol message to the group member at rank to.
func (r *Replica) send(to int, p payload) {
	if r.tracer != nil {
		r.trace("%s -> node %d", p.Kind, r.member.global(to))
	}
	r.net.Send(simnet.Message{
		From:    r.gid,
		To:      r.member.global(to),
		Size:    r.wireSize(p),
		Kind:    int(p.Kind),
		Payload: r.boxPayload(p),
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
// the ring, stopping before it would return to its origin.
func (r *Replica) forwardChain(p payload) {
	next := r.nextOnRing()
	if next == p.Stamp.Node() {
		return
	}
	r.send(next, p)
}

// broadcast transmits p to every follower in this replica's strong-
// consistency domain (its whole replica group, or the local hybrid group
// under hybrid consistency).
func (r *Replica) broadcast(p payload) {
	if r.p.Groups <= 1 {
		if r.tracer != nil {
			r.trace("%s -> all", p.Kind)
		}
		// One boxed payload serves every copy: BroadcastRange shares the
		// pointer, and the box's refcount lets the last receiver recycle it.
		r.net.BroadcastRange(simnet.Message{
			From:    r.gid,
			Size:    r.wireSize(p),
			Kind:    int(p.Kind),
			Payload: r.boxShared(p, r.member.Size-1),
		}, r.member.Base, r.member.Size, -1)
		return
	}
	g := r.member.Size / r.p.Groups
	base := (r.id / g) * g
	if r.tracer != nil {
		r.trace("%s -> group", p.Kind)
		for to := base; to < base+g; to++ {
			if to != r.id {
				r.trace("%s -> node %d", p.Kind, r.member.global(to))
			}
		}
	}
	r.net.BroadcastRange(simnet.Message{
		From:    r.gid,
		Size:    r.wireSize(p),
		Kind:    int(p.Kind),
		Payload: r.boxShared(p, g-1),
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
				r.trace("%s -> node %d", p.Kind, r.member.global(to))
			}
		}
		r.net.BroadcastRange(simnet.Message{
			From:    r.gid,
			Size:    r.wireSize(p),
			Kind:    int(p.Kind),
			Payload: r.boxShared(p, hi-lo),
		}, r.member.global(lo), hi-lo, -1)
	}
}

// HandleNetMessage feeds a protocol message into the replica's receive path.
// NewReplica registers the replica's handler with the network directly;
// sharded clusters install a demultiplexer per node instead (client-routing
// messages share each NIC with protocol traffic) and forward protocol
// messages here.
func (r *Replica) HandleNetMessage(m simnet.Message) { r.onMessage(m) }

// onMessage is the network receive entry point: it charges a worker for the
// handling cost, then dispatches. Message From/To are global node IDs; the
// dispatch records carry the sender's group rank.
func (r *Replica) onMessage(m simnet.Message) {
	pp := m.Payload.(*payload)
	// A box is spent once every message sharing it has been copied out;
	// the last receiver recycles it (here, on the receiving side), clearing
	// the cauhist reference first. Under concurrent logical processes a
	// broadcast box is decremented by receivers on different goroutines:
	// copyBody leaves the racing refs bytes unread, and the atomic
	// decrement orders each receiver's copy-out above before the last
	// receiver's zeroing below.
	var p payload
	if r.atomicRefs {
		p = pp.copyBody()
		if atomic.AddInt32(&pp.refs, -1) == 0 {
			*pp = payload{}
			r.pfree = append(r.pfree, pp)
		}
	} else {
		p = *pp
		if pp.refs--; pp.refs == 0 {
			*pp = payload{}
			r.pfree = append(r.pfree, pp)
		}
	}
	service := r.p.MessageHandle
	if p.Kind == MsgINV || p.Kind == MsgUPD {
		service += r.mem.DDIOFillLatency()
	}
	from := int32(r.member.rankOf(m.From))
	ni := r.dispFree
	if ni >= 0 {
		r.dispFree = r.disp[ni].next
		r.disp[ni] = dispatchRec{from: from, p: p}
	} else {
		r.disp = append(r.disp, dispatchRec{from: from, p: p})
		ni = int32(len(r.disp) - 1)
	}
	r.work.AcquireEvent(service, r, uint64(ni))
}

// OnEvent dispatches the message parked at token arg. It implements
// sim.Handler so message handling schedules without a closure per message.
func (r *Replica) OnEvent(arg uint64) {
	rec := &r.disp[arg]
	from, p := int(rec.from), rec.p
	rec.p = payload{} // drop the vclock reference before recycling
	rec.next = r.dispFree
	r.dispFree = int32(arg)
	r.dispatch(from, p)
}

func (r *Replica) dispatch(from int, p payload) {
	if r.tracer != nil {
		r.trace("recv %s (from %d)", p.Kind, from)
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
	r.vol.Put(key, engines.Item{Value: r.sharedVal, Version: uint64(st)})
	if r.tracer != nil {
		r.trace("update replica k%d=%v", key, st)
	}
	return true
}

// persist makes (key, st) durable; done (optional) runs once a version at
// least as new as st is in NVM. Persists coalesce per key the way cacheline
// write-backs do: if a persist covering st is already durable or in flight,
// no new device write is issued — done just joins the in-flight completion.
// The NVM image and the persisted stamp advance monotonically.
func (r *Replica) persist(key uint64, st Stamp, done func()) {
	ks := r.keys.at(key)
	if r.p.NoPersistCoalescing {
		// Ablation: one device write per update, no write-back batching.
		r.M.Persists++
		ni := r.allocPev(pevRec{key: key, st: st, done: done})
		r.dev.WriteEvent(key, &r.ablC, uint64(ni))
		return
	}
	if st <= ks.persisted {
		if done != nil {
			r.eng.Schedule(0, done)
		}
		return
	}
	if done != nil {
		ks.persistCbs = append(ks.persistCbs, persistCb{st: st, done: done})
	}
	if ks.persistInFlight {
		if st > ks.dirtyStamp {
			ks.dirtyStamp = st
		}
		return
	}
	r.issuePersist(key, st)
}

// issuePersist puts one device write in flight covering stamp st; at
// completion it fires covered callbacks and writes back again if the key
// got dirtier meanwhile.
func (r *Replica) issuePersist(key uint64, st Stamp) {
	ks := r.keys.at(key)
	ks.persistInFlight = true
	ks.dirtyStamp = st
	ks.issuedStamp = st
	r.M.Persists++
	if r.tracer != nil {
		r.trace("persist k%d=%v ...", key, st)
	}
	r.dev.WriteEvent(key, &r.persC, key)
}

// persistDone routes NVM write-back completions back to their replica
// closure-free: the token is the key, and keyState.issuedStamp remembers the
// covered stamp (at most one write-back per key is in flight).
type persistDone struct{ r *Replica }

func (pd *persistDone) OnEvent(key uint64) { pd.r.writeBackDone(key) }

// writeBackDone completes the in-flight coalesced persist for key: advance
// the persisted stamp and NVM image, fire covered callbacks, wake stalled
// readers, and write back again if the key got dirtier meanwhile.
func (r *Replica) writeBackDone(key uint64) {
	ks := r.keys.at(key)
	st := ks.issuedStamp
	ks.persistInFlight = false
	if st > ks.persisted {
		ks.persisted = st
		r.img.Put(key, engines.Item{Value: r.sharedVal, Version: uint64(st)})
	}
	if r.tracer != nil {
		r.trace("persist k%d=%v done", key, st)
	}
	// Snapshot-and-swap before firing: a callback may re-enter persist()
	// for this key and append new entries, which must not be clobbered. The
	// spare buffer keeps both backing arrays alive across rounds so the
	// swap never reallocates.
	if len(ks.persistCbs) > 0 {
		cbs := ks.persistCbs
		ks.persistCbs = ks.spareCbs[:0]
		for _, cb := range cbs {
			if cb.st <= ks.persisted {
				cb.done()
			} else {
				ks.persistCbs = append(ks.persistCbs, cb)
			}
		}
		for i := range cbs {
			cbs[i] = persistCb{} // release the callbacks for GC
		}
		ks.spareCbs = cbs[:0]
	}
	r.wakePersistWaiters(ks)
	if ks.dirtyStamp > ks.persisted && !ks.persistInFlight {
		r.issuePersist(key, ks.dirtyStamp)
	}
}

// persistEvent persists a non-key protocol event (transaction begin) to NVM.
func (r *Replica) persistEvent(addr uint64, done func()) {
	r.M.Persists++
	ni := r.allocPev(pevRec{done: done})
	r.dev.WriteEvent(addr, &r.pevC, uint64(ni))
}

// wakeConsWaiters resumes reads stalled on consistency validation.
func (r *Replica) wakeConsWaiters(ks *keyState) {
	if len(ks.consWait) == 0 {
		return
	}
	waiters := ks.consWait
	ks.consWait = nil
	for _, w := range waiters {
		w()
	}
}

// wakePersistWaiters resumes reads stalled on local persistence.
func (r *Replica) wakePersistWaiters(ks *keyState) {
	if len(ks.persWait) == 0 {
		return
	}
	waiters := ks.persWait
	ks.persWait = nil
	for _, w := range waiters {
		w()
	}
}

// ---------------------------------------------------------------------------
// Client read path
// ---------------------------------------------------------------------------

// ClientRead submits a read for key at this node. done runs at completion
// with the stamp of the version returned (zero if the key has no visible or
// persisted value yet). txn is the surrounding transaction id (0 outside
// transactions); under Transactional consistency a conflicting read squashes
// its transaction and done never fires (the transaction's onAbort fires
// instead).
func (r *Replica) ClientRead(key uint64, txn uint64, done func(Stamp)) {
	_ = txn
	// The worker runs the read to completion: if the read stalls, its
	// worker blocks with it (run-to-completion server threads). Under load,
	// stalled reads therefore deplete the worker pool — the degradation
	// that makes client count matter so much in Figure 7. Transactional
	// reads never squash: they serve the latest committed version
	// (readAttempt), the snapshot flavor of Section 5.4's conflict actions.
	// The read's state rides a recycled readOp, so the steady-state read
	// pipeline allocates no per-op closures.
	op := r.getReadOp()
	op.key = key
	op.service = int64(float64(r.p.RequestCompute)*r.vol.OpCost()) + r.p.EngineOpExtra
	op.done = done
	r.work.AcquireHold(op.onHold)
}

// readOp carries one plain read through its pipeline: worker hold → service
// time → readAttempt → completion. The hold and completion closures are
// bound to the record once and the record recycles through the replica's
// freelist.
type readOp struct {
	r       *Replica
	key     uint64
	service int64
	release func()
	done    func(Stamp)
	next    *readOp // freelist link

	onHold func(func()) // bound once: worker acquired
	onDone func(Stamp)  // bound once: readAttempt finished
}

func (r *Replica) getReadOp() *readOp {
	if op := r.readFree; op != nil {
		r.readFree = op.next
		return op
	}
	op := &readOp{r: r}
	op.onHold = func(release func()) {
		op.release = release
		op.r.eng.ScheduleEvent(op.service, op, 0)
	}
	op.onDone = func(st Stamp) { op.complete(st) }
	return op
}

// OnEvent runs the read once its worker service time has elapsed. It
// implements sim.Handler so the service delay schedules closure-free.
func (op *readOp) OnEvent(uint64) {
	r, key := op.r, op.key
	r.M.Reads++
	if r.tracer != nil {
		r.trace("RD k%d", key)
	}
	ks := r.keys.at(key)
	if ks.persisted < ks.visible {
		r.M.PersistConflictReads++
	}
	r.readAttempt(key, r.eng.Now(), false, op.onDone)
}

// complete releases the worker, answers the client, and recycles the record.
func (op *readOp) complete(st Stamp) {
	r, release, done := op.r, op.release, op.done
	op.release, op.done = nil, nil
	op.next = r.readFree
	r.readFree = op
	release()
	done(st)
}

// readAttempt applies the model's read-stall rules, re-arming itself as a
// waiter until every rule passes, then completes the read.
func (r *Replica) readAttempt(key uint64, start int64, stalled bool, done func(Stamp)) {
	ks := r.keys.at(key)

	if r.vis.readBlocked(r, ks) {
		if !stalled {
			r.M.ReadStalls++
			if r.tracer != nil {
				r.trace("RD k%d stalls", key)
			}
		}
		ks.consWait = append(ks.consWait, func() { r.readAttempt(key, start, true, done) })
		return
	}
	if r.dur.readBlocked(r, ks) {
		if !stalled {
			r.M.ReadStalls++
			if r.tracer != nil {
				r.trace("RD k%d stalls (persist)", key)
			}
		}
		ks.persWait = append(ks.persWait, func() { r.readAttempt(key, start, true, done) })
		return
	}

	if stalled {
		r.M.ReadStallTime += r.eng.Now() - start
	}
	// Perform the real engine lookup against the policy-selected image.
	var ver Stamp
	if it, ok := r.readSource().Get(key); ok {
		ver = Stamp(it.Version)
	}
	if r.vis.servesCommitted() {
		// Operations may only see the effects of transactions that have
		// completed (Section 2.1): serve the latest committed version.
		ver = ks.committed
	}
	ni := r.rdoneFree
	if ni >= 0 {
		r.rdoneFree = r.rdone[ni].next
		r.rdone[ni] = readDoneRec{key: key, ver: ver, done: done}
	} else {
		r.rdone = append(r.rdone, readDoneRec{key: key, ver: ver, done: done})
		ni = int32(len(r.rdone) - 1)
	}
	r.eng.ScheduleEvent(r.mem.ReadLatency(), &r.rdoneC, uint64(ni))
}

// weakConsistency reports whether the consistency model is Causal or
// Eventual (no INV/ACK/VAL machinery).
func (r *Replica) weakConsistency() bool {
	return !r.vis.usesInvAckVal()
}

// readSource returns the engine image reads serve from: the volatile store,
// or the NVM image when Synchronous/Strict persistency under weak
// consistency makes only persisted versions readable (Figure 2 e-h).
func (r *Replica) readSource() engines.Engine {
	if r.dur.servesPersistedImage() {
		return r.img
	}
	return r.vol
}
