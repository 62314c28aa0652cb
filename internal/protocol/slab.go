package protocol

import "repro/internal/sim"

// Arena holds the record recyclers of the replicas one logical process
// runs: the one sequential engine's replicas share one arena, and each
// replica of an LP cluster has its own (Deps.Arena). A recycler is never
// locked, so an arena is never shared between goroutines. Records flow
// between a process's replicas unevenly — a coordinator books a pending
// write while its followers book dispatch records, and one node's spent
// payload box is another's next send — so one arena holds about the peak of
// what the process has in flight, where an arena per replica holds the sum
// of each replica's own peak. The zero value is ready to use.
type Arena struct {
	// Received messages parked, in their boxes, across their worker-pool
	// service job, so message dispatch schedules closure-free (see
	// Replica.onMessage / OnEvent).
	disp sim.Slab[dispatchRec]

	// The slabs behind the per-key tokens of keyState: every continuation
	// waiting on an in-flight write-back or parked across a device write or
	// a delay (conts; see cont.go), the members of every transC/transP set
	// (stamps) and every stalled read (waiters).
	conts   sim.Slab[contRec]
	stamps  stampSets
	waiters sim.Slab[*clientOp]

	// persistItems batches in flight (see cont.go) and the Causal reorder
	// buffer's parked updates (see causalDeliver).
	fanIns sim.Slab[fanIn]
	bufs   sim.Slab[*payload]

	// Client requests in flight (see clientop.go), coordinator-side pending
	// writes and transaction records.
	ops     sim.FreeList[clientOp, *clientOp]
	pws     sim.FreeList[pendingWrite, *pendingWrite]
	txnRecs sim.FreeList[txnState, *txnState]

	// The persist-item lists of transactions and scopes, carved from the
	// items chunk (only the bindings that keep such lists touch it), and the
	// spent lists of flushed scopes, kept for the next ones.
	items    []persistItem
	itemFree [][]persistItem

	// The boxes payloads travel in (see boxPool).
	boxes boxPool
}

// SpareBoxes returns the number of spent payload boxes waiting for reuse.
func (a *Arena) SpareBoxes() int { return a.boxes.free.Len() }

// recordChunk is how many records, or persist-item lists, one allocation
// carves for an arena's pools (clientOp, pendingWrite, txnState, transaction
// and scope lists). It matches payloadChunk: one arena serves every replica
// of a sequential cluster, so a cluster strands at most one partial chunk
// per pool, where chunks of 8 cost the two 160-node cells of a scale160
// benchmark rep 1,387 clientOp chunks.
const recordChunk = 64

// stampSet is a set of stamps threaded through an arena's stampSets slab:
// the token of its first member, 0 when empty. A set holds the unvalidated
// writes of one key, a handful at most, so membership is a walk.
type stampSet int32

type stampSets struct{ sim.Slab[Stamp] }

func (s *stampSets) add(set *stampSet, st Stamp) {
	for i := int32(*set); i != 0; i = *s.Next(i) {
		if *s.At(i) == st {
			return
		}
	}
	i := s.Put(st)
	*s.Next(i) = int32(*set)
	*set = stampSet(i)
}

func (s *stampSets) remove(set *stampSet, st Stamp) {
	for p := (*int32)(set); *p != 0; p = s.Next(*p) {
		if i := *p; *s.At(i) == st {
			*p = *s.Next(i)
			s.Take(i)
			return
		}
	}
}
