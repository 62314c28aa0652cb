// Package simnet models the cluster interconnect: per-node NICs with finite
// bandwidth and queue pairs, and fixed NIC-to-NIC propagation delay (the
// paper's 1 us round trip over RDMA/InfiniBand-class fabric).
//
// A message sent from node a to node b is serialized onto a's NIC (bandwidth
// occupancy), propagates for the one-way latency, is serialized into b's
// receive path, and is then handed to b's receive handler. Broadcasts place
// one serialization per destination, matching the paper's
// "coordinator broadcasts to all followers" design.
//
// Send and delivery are the hottest simulated path in every experiment, so
// the per-message state is pooled: a steady-state send+deliver cycle
// performs no heap allocation (see TestSendDeliverAllocs). Nothing per node
// grows with the fabric (TestNewFootprintLinearInNodes).
//
// The network runs in one of two wirings. New binds every node to a single
// engine (the sequential cluster); NewParallel binds each node to its own
// engine for the per-node logical-process (LP) cluster. Both wirings schedule
// cross-node arrivals with sim.Engine.AtArrival under the key (arrival time,
// source, source sequence) — the sequential one at send time, the LP one from
// per-sender mailboxes at epoch barriers (DeliverMail) — and every
// per-message quantity — transmit-queue occupancy, queue-pair backpressure,
// jitter, pair-FIFO clamping — is derived from sender-local state only, so
// the two wirings dispatch byte-identical schedules (see DESIGN.md, "Per-node
// logical processes").
package simnet

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Handler consumes a delivered message at a node.
type Handler func(msg Message)

// Message is an opaque protocol message with routing and accounting fields.
// Payload should be a pointer (or small value): boxing a pointer into the
// interface is allocation-free, which keeps the send path lean.
type Message struct {
	From    int
	To      int
	Size    int // bytes on the wire, including header
	Kind    int // protocol-defined tag >= 0, carried for tracing/accounting
	Payload interface{}
	SentAt  int64
}

// Config describes the fabric.
type Config struct {
	Nodes      int
	OneWayLat  int64 // ns propagation NIC-to-NIC, the same for every pair
	Jitter     int64 // max extra one-way delay, ns (uniform; 0 = none)
	Bandwidth  int64 // bits/s per NIC (each direction)
	QueuePairs int   // max in-flight sends per NIC; extra sends queue
	Seed       uint64

	// NoFastPath disables the flow-level delivery fast path (see delivery
	// and arrive): with the fast path on — the default — an arrival whose
	// receive queue is idle and whose serialization window provably contains
	// no other simulated work is handed to its handler in the same dispatch,
	// at the identical timestamp the two-hop slow path would compute. The
	// fast path never changes any simulated outcome, only the event count
	// (see cluster's TestNICFastPathDifferential); this switch exists for
	// that differential proof and for before/after event accounting.
	NoFastPath bool

	// MaxKind, when > 0, is the highest Message.Kind the workload will send;
	// per-kind counters are sized to it up front so the send hot path never
	// grows them. Kinds above MaxKind still work through a cold grow path.
	MaxKind int
}

// Validate reports the first configuration error, if any.
func (cfg Config) Validate() error {
	switch {
	case cfg.Nodes < 1:
		return fmt.Errorf("simnet: Nodes must be >= 1, got %d", cfg.Nodes)
	case cfg.Nodes > sim.MaxArrivalSources:
		// An arrival's tie-break key packs the source node into 15 bits.
		return fmt.Errorf("simnet: Nodes must be <= %d, got %d", sim.MaxArrivalSources, cfg.Nodes)
	case cfg.Bandwidth <= 0:
		return fmt.Errorf("simnet: Bandwidth must be positive bits/s, got %d", cfg.Bandwidth)
	case cfg.OneWayLat < 0:
		return fmt.Errorf("simnet: OneWayLat must be >= 0 ns, got %d", cfg.OneWayLat)
	case cfg.Jitter < 0:
		return fmt.Errorf("simnet: Jitter must be >= 0 ns, got %d", cfg.Jitter)
	case cfg.QueuePairs < 0:
		return fmt.Errorf("simnet: QueuePairs must be >= 0, got %d", cfg.QueuePairs)
	case cfg.MaxKind < 0:
		return fmt.Errorf("simnet: MaxKind must be >= 0, got %d", cfg.MaxKind)
	}
	return nil
}

// Per-(src,dst) FIFO is guaranteed even with jitter: an early jittered
// arrival is clamped behind its predecessor's arrival (reliable-connection
// ordering), while cross-source interleavings at a destination are decided
// by arrival order.

// txState is the send side of one NIC, touched only by its own node (its
// own LP under parallel wiring).
type txState struct {
	txFree int64      // NIC transmit next-free time
	seq    uint64     // sends so far: jitter input and arrival tie-break key
	rel    relTracker // sends in flight: queue-pair occupancy and pair FIFO
	msgs   uint64     // messages sent
	bytes  uint64     // bytes placed on the wire
	byKind []uint64   // per-kind message counts, indexed by Message.Kind
}

// rxState is the receive side of one NIC, touched only by the destination
// node (its own LP under parallel wiring).
type rxState struct {
	rxFree  int64 // NIC receive next-free time
	dropped uint64
	fast    uint64                            // arrivals delivered through the one-hop fast path
	pool    sim.FreeList[delivery, *delivery] // delivery records (LP wiring only)
}

// mailEntry is one cross-node arrival parked in its sender's mailbox until
// the epoch barrier (parallel wiring only). The source is implied by the
// mailbox index, the destination by the message.
type mailEntry struct {
	at  int64
	seq uint64
	d   *delivery
}

// Network connects Nodes NICs. Register a handler per node before sending.
type Network struct {
	engs     []*sim.Engine // per-node engine; sequential wiring repeats one
	cfg      Config
	handlers []Handler

	tx []txState
	rx []rxState

	// Sequential wiring: one shared delivery pool; arrivals are scheduled
	// straight into the shared engine (sim.Engine.AtArrival).
	seqPool sim.FreeList[delivery, *delivery]

	// Parallel wiring: per-sender mailboxes drained at epoch barriers.
	lp       bool
	mail     [][]mailEntry // [src]
	mailSent uint64
}

// New creates a sequentially wired network: every node shares eng, and
// cross-node arrivals are scheduled into it under their canonical key.
// Invalid configurations panic with the descriptive Config.Validate error:
// simulation wiring is a programming error, and every field is checked the
// same way.
func New(eng *sim.Engine, cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	engs := make([]*sim.Engine, cfg.Nodes)
	for i := range engs {
		engs[i] = eng
	}
	return newNetwork(engs, cfg)
}

// NewParallel creates an LP-wired network: node i runs on engs[i], and
// cross-node traffic parks in per-sender mailboxes until DeliverMail
// schedules it on the destination engine at an epoch barrier. Panics on
// invalid configurations (ValidateLP) or an engine-count mismatch.
func NewParallel(engs []*sim.Engine, cfg Config) *Network {
	if err := cfg.ValidateLP(); err != nil {
		panic(err)
	}
	if len(engs) != cfg.Nodes {
		panic(fmt.Sprintf("simnet: NewParallel needs %d engines, got %d", cfg.Nodes, len(engs)))
	}
	n := newNetwork(engs, cfg)
	n.lp = true
	n.mail = make([][]mailEntry, cfg.Nodes)
	for i := range n.tx {
		n.tx[i].rel.spare = new(sendBlocks) // touched by node i's LP only
	}
	return n
}

func newNetwork(engs []*sim.Engine, cfg Config) *Network {
	n := &Network{
		engs:     engs,
		cfg:      cfg,
		handlers: make([]Handler, cfg.Nodes),
		tx:       make([]txState, cfg.Nodes),
		rx:       make([]rxState, cfg.Nodes),
	}
	kinds := 16
	if cfg.MaxKind+1 > kinds {
		kinds = cfg.MaxKind + 1
	}
	// Every NIC's in-flight list starts as a carve of one chunk per network;
	// under sequential wiring the NICs share one pool of overflow blocks.
	var sends []inflight
	spare := new(sendBlocks)
	for i := range n.tx {
		n.tx[i].byKind = make([]uint64, kinds)
		n.tx[i].rel = relTracker{sends: sim.CarveList(&sends, inflightCarve, cfg.Nodes), spare: spare, next: math.MaxInt64}
	}
	return n
}

// inflightCarve is the room each NIC's in-flight list starts with, and the
// size of an overflow block. The busiest NIC of a flat 5x20 cell or of the
// 160-node scaling cell peaks at 58-123 sends in flight, so a burst borrows
// at most one block.
const inflightCarve = 64

// Register installs the receive handler for node id.
func (n *Network) Register(id int, h Handler) {
	n.handlers[id] = h
}

// serialization returns the wire time of size bytes at the NIC bandwidth.
func (n *Network) serialization(size int) int64 {
	bits := int64(size) * 8
	ns := bits * 1e9 / n.cfg.Bandwidth
	if ns < 1 {
		ns = 1
	}
	return ns
}

// jitterFor derives the extra one-way delay of one message as a pure hash of
// (seed, pair, sequence) — a splitmix64-style mix. A hash rather than a
// shared RNG stream keeps jitter independent of global send interleaving,
// which both wirings must agree on; it is also additive, so it never lowers
// the lookahead bound.
func jitterFor(seed, pair, seq uint64, max int64) int64 {
	x := seed ^ pair*0x9e3779b97f4a7c15 ^ seq*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x % uint64(max+1))
}

// delivery carries one in-flight message through its two scheduled hops:
// arrival at the destination NIC, then handler dispatch after receive-side
// serialization. Records are pooled (shared under sequential wiring,
// per-node under LP wiring, where a record allocated by the sender is
// recycled by the receiver) and both hops are typed engine events on the
// record itself, so the steady-state send path schedules zero closures and
// allocates nothing. The record does not keep the message's serialization
// time: the arrival event carries it (arriveArg), which keeps the record at
// 72 B without a second division per message.
type delivery struct {
	n   *Network
	msg Message
	sim.Link[delivery]
}

// The two hops of a delivery, as typed-event arguments: the dispatch hop's
// is hopDeliver, and the arrival hop's is arriveArg(ser), which is even.
const hopDeliver = 1

// arriveArg is the arrival event's argument for a message whose
// serialization time is ser.
func arriveArg(ser int64) uint64 { return uint64(ser) << 1 }

// OnEvent advances the delivery through its hops. It implements sim.Handler
// so the record's events schedule closure-free.
func (d *delivery) OnEvent(arg uint64) {
	if arg == hopDeliver {
		d.deliver()
		return
	}
	d.arrive(int64(arg >> 1))
}

// deliveryChunk is how many delivery records one allocation carves.
const deliveryChunk = 64

// newDelivery takes a spent record or a fresh one. at is the allocating
// (sending) node, whose pool the LP wiring draws from.
func (n *Network) newDelivery(at int) *delivery {
	pool := &n.seqPool
	if n.lp {
		pool = &n.rx[at].pool
	}
	d := pool.Get(deliveryChunk)
	d.n = n
	return d
}

// arrive runs when the message reaches the destination NIC: the receive-side
// serialization queues in arrival order (cross-source interleavings at the
// destination are decided by arrival, not send).
//
// Fast path: when the flow is uncontended — the receive queue is idle at the
// arrival (rxStart == now) and the engine proves no other event, local or
// arrival, falls inside the serialization window (now, rxDone] — the
// intermediate queueing hop is skipped: the clock jumps to rxDone and the
// handler runs in this same dispatch. The timestamp is byte-identical to the
// slow path's (rxDone is computed the same way), the relative order of all
// handler invocations is unchanged (nothing else was due in the window, and
// the skipped event's unallocated sequence number shifts later sequence
// numbers uniformly, preserving every tie-break), and rx bookkeeping evolves
// identically — so only the event count differs. A busy receive queue falls
// back automatically: the predecessor's pending deliver event at old rxFree
// <= rxDone makes TryAdvance fail.
func (d *delivery) arrive(ser int64) {
	n := d.n
	to := d.msg.To
	eng := n.engs[to]
	rx := &n.rx[to]
	now := eng.Now()
	rxStart := rx.rxFree
	if rxStart < now {
		rxStart = now
	}
	rxDone := rxStart + ser
	rx.rxFree = rxDone
	if !n.cfg.NoFastPath && rxStart == now && eng.TryAdvance(rxDone) {
		rx.fast++
		d.deliver()
		return
	}
	eng.AtEvent(rxDone, d, hopDeliver)
}

// deliver hands the message to the destination handler and recycles the
// record. The record is returned to the pool before the handler runs, so
// handler-triggered sends reuse it immediately.
func (d *delivery) deliver() {
	n := d.n
	msg := d.msg
	d.msg = Message{} // drop the payload reference before pooling
	rx := &n.rx[msg.To]
	if n.lp {
		rx.pool.Put(d)
	} else {
		n.seqPool.Put(d)
	}
	h := n.handlers[msg.To]
	if h == nil {
		rx.dropped++
		return
	}
	h(msg)
}

// growByKind is the cold fallback for kinds above Config.MaxKind.
//
//go:noinline
func (tx *txState) growByKind(k int) {
	grown := make([]uint64, k+1)
	copy(grown, tx.byKind)
	tx.byKind = grown
}

// prepSend performs all sender-side bookkeeping of one transmission —
// accounting, queue-pair backpressure, transmit-queue occupancy, latency,
// jitter, and the pair-FIFO clamp — and returns the wire serialization time
// and the arrival time at the destination NIC.
//
// Every quantity below is derived from sender-local state and the sender's
// clock, so a send computes identically under sequential and LP wiring.
func (n *Network) prepSend(msg *Message, eng *sim.Engine) (ser, arrive int64) {
	N := n.cfg.Nodes
	now := eng.Now()
	msg.SentAt = now
	tx := &n.tx[msg.From]
	tx.msgs++
	tx.bytes += uint64(msg.Size)
	if k := msg.Kind; k >= 0 {
		if k >= len(tx.byKind) {
			tx.growByKind(k)
		}
		tx.byKind[k]++
	}
	tx.seq++

	ser = n.serialization(msg.Size)

	// Queue-pair backpressure: once the NIC has QueuePairs sends in flight,
	// each additional send pays an extra scheduling penalty on top of the
	// transmit-queue delay (doorbell/WQE recycling cost). A send occupies
	// its queue pair until its arrival time, tracked sender-side in the
	// in-flight list.
	tx.rel.release(now)
	qpDelay := int64(0)
	if n.cfg.QueuePairs > 0 && tx.rel.len() >= n.cfg.QueuePairs {
		qpDelay = ser * int64(tx.rel.len()-n.cfg.QueuePairs+1)
	}

	start := tx.txFree
	if start < now {
		start = now
	}
	txDone := start + ser + qpDelay
	tx.txFree = txDone

	var lat int64
	if msg.To != msg.From {
		lat = n.cfg.OneWayLat
		if n.cfg.Jitter > 0 {
			lat += jitterFor(n.cfg.Seed, uint64(msg.From*N+msg.To), tx.seq, n.cfg.Jitter)
		}
	}
	// Reliable-connection transports deliver in order per (src,dst) pair: the
	// tracker clamps a jittered early arrival behind its predecessor.
	return ser, tx.rel.push(msg.To, txDone+lat)
}

// Send transmits msg; delivery invokes the destination handler. Sends to
// self are delivered after a loopback cost of one serialization (no
// propagation), which the protocols use for local client responses.
func (n *Network) Send(msg Message) {
	N := n.cfg.Nodes
	if msg.From < 0 || msg.From >= N || msg.To < 0 || msg.To >= N {
		panic(fmt.Sprintf("simnet: bad route %d->%d", msg.From, msg.To))
	}
	eng := n.engs[msg.From]
	ser, arrive := n.prepSend(&msg, eng)

	d := n.newDelivery(msg.From)
	d.msg = msg

	if msg.To == msg.From {
		// Loopback stays on the sender's own engine in both wirings.
		eng.AtEvent(arrive, d, arriveArg(ser))
		return
	}
	seq := n.tx[msg.From].seq
	if n.lp {
		n.mail[msg.From] = append(n.mail[msg.From], mailEntry{at: arrive, seq: seq, d: d})
		return
	}
	eng.AtArrival(arrive, int32(msg.From), seq, d, arriveArg(ser))
}

// DeliverMail schedules every parked arrival on its destination engine with
// AtArrival, empties the mailboxes and returns how many arrivals moved.
// Parallel wiring only; call at an epoch barrier, with every LP quiescent.
// The arrival key (time, source, sequence), not the order of these calls,
// fixes dispatch order, so batched delivery dispatches identically to the
// sequential wiring's send-time AtArrival calls; lookahead puts every parked
// arrival after the epoch end, so none lands in its engine's past.
func (n *Network) DeliverMail() int {
	moved := 0
	for src, b := range n.mail {
		for i := range b {
			e := &b[i]
			n.engs[e.d.msg.To].AtArrival(e.at, int32(src), e.seq, e.d, arriveArg(n.serialization(e.d.msg.Size)))
			e.d = nil
		}
		moved += len(b)
		n.mail[src] = b[:0]
	}
	n.mailSent += uint64(moved)
	return moved
}

// MailDelivered returns the total cross-LP arrivals moved by DeliverMail.
func (n *Network) MailDelivered() uint64 { return n.mailSent }

// Messages returns the number of messages sent.
func (n *Network) Messages() uint64 {
	var total uint64
	for i := range n.tx {
		total += n.tx[i].msgs
	}
	return total
}

// Bytes returns total bytes placed on the wire.
func (n *Network) Bytes() uint64 {
	var total uint64
	for i := range n.tx {
		total += n.tx[i].bytes
	}
	return total
}

// MessagesOfKind returns the per-kind message count.
func (n *Network) MessagesOfKind(kind int) uint64 {
	if kind < 0 {
		return 0
	}
	var total uint64
	for i := range n.tx {
		if kind < len(n.tx[i].byKind) {
			total += n.tx[i].byKind[kind]
		}
	}
	return total
}

// FastDeliveries returns how many arrivals took the one-hop fast path.
func (n *Network) FastDeliveries() uint64 {
	var total uint64
	for i := range n.rx {
		total += n.rx[i].fast
	}
	return total
}

// Dropped returns messages delivered to nodes with no handler.
func (n *Network) Dropped() uint64 {
	var total uint64
	for i := range n.rx {
		total += n.rx[i].dropped
	}
	return total
}

// Nodes returns the number of NICs.
func (n *Network) Nodes() int { return n.cfg.Nodes }

// BroadcastRange sends a copy of msg from its From node to every node in
// [base, base+size) except msg.From and except — the group-scoped broadcast
// of a sharded cluster, where each replica group owns a contiguous block of
// node IDs. Copies go out in ascending node order.
func (n *Network) BroadcastRange(msg Message, base, size, except int) {
	for to := base; to < base+size; to++ {
		if to == msg.From || to == except {
			continue
		}
		m := msg
		m.To = to
		n.Send(m)
	}
}

// relTracker is one NIC's sends in flight, in send order: queue-pair
// occupancy (a send holds a queue pair until its arrival time) and the
// pair-FIFO clamp's memory, O(sends in flight) however large the fabric. The
// oldest sends fill the NIC's carve; once it is full, newer ones go to an
// overflow block borrowed from a pool that every NIC of a logical process
// shares, and the block goes back as soon as the carve takes in what is left
// of it. So a burst neither moves the list nor strands its carve, and blocks
// follow the process's peak of bursting NICs. A cached earliest arrival makes
// the common no-op release O(1).
type relTracker struct {
	sends []inflight  // the oldest sends; full whenever more is in use
	more  []inflight  // the newer sends of a burst; nil when none
	spare *sendBlocks // where more comes from and goes back to
	next  int64       // earliest arrival in the list; max int64 when empty
}

type inflight struct {
	at  int64
	dst int32
}

// sendBlocks is a pool of spent overflow blocks.
type sendBlocks struct {
	free  [][]inflight
	chunk []inflight
}

func (b *sendBlocks) get() []inflight {
	if n := len(b.free); n > 0 {
		blk := b.free[n-1]
		b.free = b.free[:n-1]
		return blk
	}
	return sim.CarveList(&b.chunk, inflightCarve, 8)
}

func (b *sendBlocks) put(blk []inflight) { b.free = append(b.free, blk[:0]) }

func (h *relTracker) len() int { return len(h.sends) + len(h.more) }

// release drops every send that has arrived by now, keeping send order: the
// carve keeps its own survivors, then takes the overflow block's oldest ones
// while it has room.
func (h *relTracker) release(now int64) {
	if now < h.next {
		return
	}
	next := int64(math.MaxInt64)
	keep := h.sends[:0]
	for _, s := range h.sends {
		if s.at > now {
			keep = append(keep, s)
			next = min(next, s.at)
		}
	}
	if h.more != nil {
		rest := h.more[:0]
		for _, s := range h.more {
			if s.at <= now {
				continue
			}
			next = min(next, s.at)
			if len(keep) < cap(keep) {
				keep = append(keep, s)
			} else {
				rest = append(rest, s)
			}
		}
		h.more = rest
		if len(rest) == 0 {
			h.spare.put(rest)
			h.more = nil
		}
	}
	h.sends = keep
	h.next = next
}

// push records a send to dst arriving at t, clamped behind the last send to
// dst still in flight, and returns the arrival. After release(now) this is
// exact: a released arrival is <= now < t, so it could never clamp.
func (h *relTracker) push(dst int, t int64) int64 {
	if at, ok := lastTo(h.more, dst); ok {
		t = max(t, at)
	} else if at, ok := lastTo(h.sends, dst); ok {
		t = max(t, at)
	}
	s := inflight{at: t, dst: int32(dst)}
	if len(h.sends) < cap(h.sends) {
		h.sends = append(h.sends, s)
	} else {
		if h.more == nil {
			h.more = h.spare.get()
		}
		h.more = append(h.more, s)
	}
	h.next = min(h.next, t)
	return t
}

// lastTo returns the arrival of the newest send to dst in sends.
func lastTo(sends []inflight, dst int) (int64, bool) {
	for i := len(sends) - 1; i >= 0; i-- {
		if s := sends[i]; int(s.dst) == dst {
			return s.at, true
		}
	}
	return 0, false
}
