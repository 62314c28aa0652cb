package protocol

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/simnet"
)

// deliverBoxed hands p to r the way the network does: boxed out of r's own
// pool, so the box r releases is the one r's next send or scribble reuses.
func deliverBoxed(r *Replica, from int, p payload) {
	r.HandleNetMessage(simnet.Message{From: from, To: r.ID(), Kind: int(p.Kind), Payload: r.boxes.box(p, 1)})
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

// TestCausalHistoryOutlivesItsBox: a follower buffers an out-of-order UPD,
// and the box it arrived in is then reused for writes with other histories —
// between the receive and the service job's dispatch, and again while the
// update waits in the reorder buffer. The update must still apply in causal
// order, with its own vector: a receiver holds the box until its handler
// returns, and a buffered update copies its history out before then.
func TestCausalHistoryOutlivesItsBox(t *testing.T) {
	tc := newTestCluster(mdl(core.Causal, core.EventualP), 3, nil)
	r2 := tc.reps[2]
	upd1 := payload{Kind: MsgUPD, Key: 1, Stamp: MakeStamp(1, 0), Cauhist: []uint64{1, 0, 0}}
	upd2 := payload{Kind: MsgUPD, Key: 2, Stamp: MakeStamp(2, 0), Cauhist: []uint64{2, 0, 0}}
	tc.eng.Schedule(0, func() {
		deliverBoxed(r2, 0, upd2) // arrives first: parked for its service job
		scribble(r2)
	})
	tc.eng.Schedule(20_000, func() {
		if r2.BufferLen() != 1 || !r2.VisibleVersion(2).IsZero() {
			t.Errorf("after early upd2: buffer %d, k2 visible %v; want it buffered", r2.BufferLen(), r2.VisibleVersion(2))
		}
		scribble(r2)
		r2.ClientWrite(9, 0, 0, Func(func(uint64) {}), 0) // a real write reusing the box
	})
	tc.eng.Schedule(40_000, func() {
		scribble(r2)
		deliverBoxed(r2, 0, upd1) // unblocks upd2
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
	if r2.M.BufferedUpdates != 1 {
		t.Fatalf("buffered count = %d, want 1", r2.M.BufferedUpdates)
	}
}

// TestCausalChainHopResendsHistory is the same case under the
// SerialPropagation ablation: each follower forwards the UPD to the next on
// the ring, re-boxing the history it holds, while every spent box in every
// pool keeps being reused. Each follower buffers upd2 once and applies both.
func TestCausalChainHopResendsHistory(t *testing.T) {
	tc := newTestCluster(mdl(core.Causal, core.EventualP), 4, func(p *params.Params) { p.SerialPropagation = true })
	r1 := tc.reps[1]
	upd1 := payload{Kind: MsgUPD, Key: 1, Stamp: MakeStamp(1, 0), Cauhist: []uint64{1, 0, 0, 0}, Chain: true}
	upd2 := payload{Kind: MsgUPD, Key: 2, Stamp: MakeStamp(2, 0), Cauhist: []uint64{2, 0, 0, 0}, Chain: true}
	for at := int64(0); at <= 60_000; at += 100 {
		tc.eng.Schedule(at, func() {
			for _, r := range tc.reps {
				scribble(r)
			}
		})
	}
	tc.eng.Schedule(50, func() { deliverBoxed(r1, 0, upd2) })
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
}
