package protocol

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/simnet"
)

// deliverBoxed hands p to r the way the network does: boxed out of r's own
// pool, so the box r releases is the one r's next send or scribble reuses. It
// returns the box.
func deliverBoxed(r *Replica, from int, p payload) *payload {
	pp := r.boxes.box(p, 1)
	r.HandleNetMessage(simnet.Message{From: from, To: r.ID(), Kind: int(p.Kind), Payload: pp})
	return pp
}

// scribble reuses every spent box in r's pool for a write with another
// history, as r's next causal writes would, and returns them.
func scribble(r *Replica) {
	garbage := make([]uint64, r.member.Size)
	for i := range garbage {
		garbage[i] = 99
	}
	held := make([]*payload, r.boxes.Spare())
	for i := range held {
		held[i] = r.boxes.box(payload{Kind: MsgUPD, Stamp: MakeStamp(99, 1), Cauhist: garbage}, 1)
	}
	for _, pp := range held {
		r.boxes.put(pp)
	}
}

// spares counts how often pp sits among the spent boxes of reps' pools. It
// takes every spare out of each pool and puts them back in their order.
func spares(reps []*Replica, pp *payload) int {
	n := 0
	for _, r := range reps {
		held := make([]*payload, r.boxes.Spare())
		for i := range held {
			if held[i] = r.boxes.free.Get(payloadChunk); held[i] == pp {
				n++
			}
		}
		for i := len(held) - 1; i >= 0; i-- {
			r.boxes.put(held[i])
		}
	}
	return n
}

// checkHeld reports a box that a buffered update holds but that is spent: its
// reference dropped, or back among the spares of one of reps' pools.
func checkHeld(t *testing.T, reps []*Replica, pp *payload, what string) {
	t.Helper()
	if n := spares(reps, pp); n != 0 || pp.refs != 1 {
		t.Errorf("%s: box among the spares %d times with %d references, want held once and spare nowhere", what, n, pp.refs)
	}
}

// checkSpent reports a box that is not back in exactly one of reps' pools,
// exactly once. (A spare box's refs is stale: scribble reuses it.)
func checkSpent(t *testing.T, reps []*Replica, pp *payload, what string) {
	t.Helper()
	if n := spares(reps, pp); n != 1 {
		t.Errorf("%s: box among the spares %d times, want exactly once", what, n)
	}
}

// TestCausalHistoryOutlivesItsBox: a follower buffers an out-of-order UPD and
// a duplicate of it, and every spent box in its pool is then reused for
// writes with other histories — between the receive and the service job's
// dispatch, and again while the update waits in the reorder buffer. A
// buffered update holds its box: while it waits, the box has one reference
// and is among no pool's spares, so no reuse reaches its body or history, and
// the update applies in causal order with its own vector. Once the update
// applies, and once its duplicate is dropped as stale, each box is back in
// the pool exactly once. The same holds with atomic reference counts.
func TestCausalHistoryOutlivesItsBox(t *testing.T) {
	for _, atomicRefs := range []bool{false, true} {
		t.Run(fmt.Sprintf("AtomicRefs=%v", atomicRefs), func(t *testing.T) {
			tc := newTestCluster(mdl(core.Causal, core.EventualP), 3, nil)
			r2 := tc.reps[2]
			for _, r := range tc.reps {
				r.atomicRefs = atomicRefs
			}
			upd1 := payload{Kind: MsgUPD, Key: 1, Stamp: MakeStamp(1, 0), Cauhist: []uint64{1, 0, 0}}
			upd2 := payload{Kind: MsgUPD, Key: 2, Stamp: MakeStamp(2, 0), Cauhist: []uint64{2, 0, 0}}
			var boxes []*payload // upd2, then its duplicate
			tc.eng.Schedule(0, func() {
				boxes = append(boxes, deliverBoxed(r2, 0, upd2), deliverBoxed(r2, 0, upd2)) // arrive first: parked for their service jobs
				scribble(r2)
			})
			tc.eng.Schedule(20_000, func() {
				if r2.BufferLen() != 2 || !r2.VisibleVersion(2).IsZero() {
					t.Errorf("after early upd2: buffer %d, k2 visible %v; want both copies buffered", r2.BufferLen(), r2.VisibleVersion(2))
				}
				for _, pp := range boxes {
					checkHeld(t, tc.reps, pp, "upd2 buffered")
				}
				scribble(r2)
				r2.ClientWrite(9, 0, 0, Func(func(uint64) {}), 0) // a real write reusing a spare box
				for _, pp := range boxes {
					if pp.Key != upd2.Key || pp.Stamp != upd2.Stamp || !slices.Equal(pp.Cauhist, upd2.Cauhist) {
						t.Errorf("buffered box rewritten while held: k%d %v %v", pp.Key, pp.Stamp, pp.Cauhist)
					}
				}
			})
			tc.eng.Schedule(40_000, func() {
				scribble(r2)
				deliverBoxed(r2, 0, upd1) // unblocks upd2; its duplicate is stale
				scribble(r2)
			})
			tc.run()
			if r2.BufferLen() != 0 {
				t.Fatalf("buffer not drained: %d (upd2 filed under a recycled box's history?)", r2.BufferLen())
			}
			if r2.VisibleVersion(1).IsZero() || r2.VisibleVersion(2).IsZero() {
				t.Fatal("updates not applied after reorder")
			}
			if vc := r2.AppliedVC(); vc[0] != 2 || vc[1] != 0 {
				t.Fatalf("applied vector %v, want node 0's two writes and none of node 1's", vc)
			}
			if r2.M.BufferedUpdates != 2 {
				t.Fatalf("buffered count = %d, want 2", r2.M.BufferedUpdates)
			}
			checkSpent(t, tc.reps, boxes[0], "upd2 applied")
			checkSpent(t, tc.reps, boxes[1], "upd2's duplicate dropped")
		})
	}
}

// TestCausalChainHopResendsHistory is the same case under the
// SerialPropagation ablation: each follower forwards the UPD to the next on
// the ring, re-boxing the body it holds, while every spent box in every pool
// keeps being reused. Each follower buffers upd2 once, holding the box it
// arrived in, and applies both; each of those boxes then ends in exactly one
// pool, exactly once — the pool of the follower that released it last. The
// same holds with atomic reference counts.
func TestCausalChainHopResendsHistory(t *testing.T) {
	for _, atomicRefs := range []bool{false, true} {
		t.Run(fmt.Sprintf("AtomicRefs=%v", atomicRefs), func(t *testing.T) {
			tc := newTestCluster(mdl(core.Causal, core.EventualP), 4, func(p *params.Params) { p.SerialPropagation = true })
			r1 := tc.reps[1]
			upd1 := payload{Kind: MsgUPD, Key: 1, Stamp: MakeStamp(1, 0), Cauhist: []uint64{1, 0, 0, 0}, Chain: true}
			upd2 := payload{Kind: MsgUPD, Key: 2, Stamp: MakeStamp(2, 0), Cauhist: []uint64{2, 0, 0, 0}, Chain: true}
			held := map[*payload]bool{} // the box upd2 arrived in at each follower
			for _, r := range tc.reps {
				r.atomicRefs = atomicRefs
				r.watch = func(_ int32, p *payload) {
					if p.Key == upd2.Key {
						held[p] = true
					}
				}
			}
			for at := int64(0); at <= 60_000; at += 100 {
				tc.eng.Schedule(at, func() {
					for _, r := range tc.reps {
						scribble(r)
					}
				})
			}
			tc.eng.Schedule(50, func() { deliverBoxed(r1, 0, upd2) })
			tc.eng.Schedule(15_000, func() {
				if len(held) != 3 {
					t.Errorf("upd2 reached its followers in %d boxes, want 3", len(held))
				}
				for pp := range held {
					checkHeld(t, tc.reps, pp, "upd2 buffered")
				}
			})
			tc.eng.Schedule(20_050, func() { deliverBoxed(r1, 0, upd1) })
			tc.run()
			for _, r := range tc.reps[1:] {
				if r.BufferLen() != 0 || r.M.BufferedUpdates != 1 {
					t.Errorf("node %d: buffer %d, buffered %d; want upd2 buffered once and drained", r.ID(), r.BufferLen(), r.M.BufferedUpdates)
				}
				if vc := r.AppliedVC(); vc[0] != 2 {
					t.Errorf("node %d: applied vector %v, want node 0's two writes", r.ID(), vc)
				}
				if r.VisibleVersion(1).IsZero() || r.VisibleVersion(2).IsZero() {
					t.Errorf("node %d: updates not applied", r.ID())
				}
			}
			for pp := range held {
				checkSpent(t, tc.reps, pp, "upd2 applied")
			}
		})
	}
}
