// Package protocol implements the paper's leaderless, broadcast-based DDP
// replication protocols (Section 5) for all 25 <consistency, persistency>
// bindings.
//
// Terminology follows the paper (and Hermes): the node that receives a
// client's request for a key is that operation's Coordinator; all other
// nodes, which replicate every key, are Followers. Strong consistency models
// (Linearizable, Read-Enforced, Transactional) run an INV/ACK/VAL broadcast;
// weak models (Causal, Eventual) send UPD messages, with a causal history
// (cauhist) vector clock attached under Causal consistency. Persistency
// models insert persist points and, where needed, split ACK/VAL into _c
// (consistency) and _p (persistency) variants — Table 3's message taxonomy.
//
// The package is organized as a visibility policy layer and one durability
// path over a model-agnostic replica core. Each consistency model is a
// VisibilityPolicy (one file per model: linearizable.go, readenforced_c.go,
// transactional.go, causal.go, eventual_c.go); policy.go defines the
// interface, its hook contract, and the resolver that binds a core.Model —
// one of the 25 matrix cells, taken at face value — to its policy once at
// Replica construction, next to the model's core.Rules row, which holds
// every rule the replica branches on. The five persistency models share one
// durability path (durability.go) that branches on that row, with Scope
// persistency's barrier in scope.go.
// The remaining files are the plumbing the policies drive:
// replica.go (state, messaging, persist coalescing, read stalls), clientop.go
// (the client request pipeline), write.go (write rounds), causal.go (reorder
// buffer), txn.go (transaction lifecycle), cont.go (continuations as data)
// and slab.go (stamp sets, and the chunk size of the recycled records).
package protocol

import (
	"repro/internal/sim"
	"repro/internal/vclock"
)

// MsgKind enumerates Table 3's protocol messages, plus the two auxiliary
// messages (NACK, ABORTX) of the transactional conflict-handling
// infrastructure the paper describes in Section 5.4.
type MsgKind uint8

// Message kinds.
const (
	MsgINV     MsgKind = iota // invalidate + new value (strong consistency)
	MsgACK                    // combined consistency+persistency acknowledgment
	MsgACKc                   // acknowledges a consistency event
	MsgACKp                   // acknowledges a persistency event
	MsgVAL                    // marks termination of an event
	MsgVALc                   // marks termination of a consistency event
	MsgVALp                   // marks termination of a persistency event
	MsgUPD                    // lazy update (+cauhist under Causal)
	MsgINITX                  // transaction begin
	MsgENDX                   // transaction end
	MsgPERSIST                // end of scope s ([PERSIST]s)
	MsgNACK                   // transactional conflict report to a coordinator
	MsgABORTX                 // transaction squash notification
)

func (k MsgKind) String() string {
	switch k {
	case MsgINV:
		return "INV"
	case MsgACK:
		return "ACK"
	case MsgACKc:
		return "ACK_c"
	case MsgACKp:
		return "ACK_p"
	case MsgVAL:
		return "VAL"
	case MsgVALc:
		return "VAL_c"
	case MsgVALp:
		return "VAL_p"
	case MsgUPD:
		return "UPD"
	case MsgINITX:
		return "INITX"
	case MsgENDX:
		return "ENDX"
	case MsgPERSIST:
		return "PERSIST"
	case MsgNACK:
		return "NACK"
	case MsgABORTX:
		return "ABORTX"
	default:
		return "MSG?"
	}
}

// payload is the protocol message body carried over simnet.
type payload struct {
	Kind    MsgKind
	Key     uint64
	Stamp   Stamp
	Scope   uint64
	Txn     uint64
	Cauhist vclock.VC // empty except under Causal consistency (see boxPool)
	Chain   bool      // serially-propagated (SerialPropagation ablation)

	// refs counts the holders of this box: the messages sharing it (broadcast
	// shares one box across every copy) whose handlers have not yet returned,
	// plus the receivers' buffered causal updates parked in it. Meaningful
	// only in the boxed instance; value copies carry it inertly. Not part of
	// the wire format.
	refs int32

	sim.Link[payload]
}

// payloadChunk is how many boxes, or box histories, one allocation carves.
const payloadChunk = 64

// boxPool recycles the boxes payloads travel in (a pointer boxes into
// simnet.Message.Payload without allocating): the sender takes a box, a
// received message waits for its worker in it and its handler reads it
// there, and the last receiver puts it back once its handler returns
// (Replica.OnEvent). Senders and receivers are not balanced — a pool per
// replica fills with its receive surplus while its peers carve — so the
// pool lives in the Arena every replica of a sequential cluster shares. The
// zero value is ready to use.
//
// A box keeps its causal history's storage across reuse: box copies the
// sender's vector into it, and only a box without room carves new storage,
// so a causal write allocates nothing in steady state. Receivers read the
// history in the box. An update buffered for causal order keeps its box: the
// receiver takes one more reference (causalDeliver) and releases it when the
// update applies or is dropped as a stale duplicate, so every receiver that
// buffers the same update shares one body and one history, and a box comes
// back to a pool only once its last holder, handler or buffered update, is
// done with it.
type boxPool struct {
	free sim.FreeList[payload, *payload]
	hist []uint64 // chunked history storage for boxes that have none
}

// box copies p into a recycled or fresh box shared by refs messages
// (a broadcast shares one box across its copies).
func (b *boxPool) box(p payload, refs int) *payload {
	pp := b.free.Get(payloadChunk)
	hist := pp.Cauhist[:0]
	if n := len(p.Cauhist); cap(hist) < n {
		hist = sim.CarveList(&b.hist, n, payloadChunk)
	}
	p.Cauhist, p.refs = append(hist, p.Cauhist...), int32(refs)
	*pp = p
	return pp
}

// put returns a spent box. Its fields stay as they are until box overwrites
// them all; its history storage is what the next causal write reuses.
func (b *boxPool) put(pp *payload) { b.free.Put(pp) }

// wireSize returns the modeled on-the-wire size of a message.
func (r *Replica) wireSize(p payload) int {
	size := r.p.MsgHeaderSize
	switch p.Kind {
	case MsgINV, MsgUPD:
		size += r.p.ValueSize
	}
	size += p.Cauhist.WireSize()
	return size
}
