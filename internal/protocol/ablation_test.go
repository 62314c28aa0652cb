package protocol

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

func TestSerialPropagationStillConverges(t *testing.T) {
	for _, m := range []core.Model{
		{C: core.Linearizable, P: core.Synchronous},
		{C: core.Causal, P: core.EventualP},
		{C: core.Eventual, P: core.EventualP},
	} {
		tc := newTestCluster(m, 4, func(p *params.Params) {
			p.SerialPropagation = true
		})
		done := 0
		tc.eng.Schedule(0, func() {
			for i := 0; i < 10; i++ {
				tc.reps[0].ClientWrite(uint64(i), 0, 0, stampDone(func(Stamp) { done++ }), 0)
			}
		})
		tc.run()
		if done != 10 {
			t.Fatalf("%s serial: %d of 10 writes completed", m, done)
		}
		for key := uint64(0); key < 10; key++ {
			v := tc.reps[0].VisibleVersion(key)
			for i, r := range tc.reps {
				if r.VisibleVersion(key) != v {
					t.Fatalf("%s serial: replica %d diverged on key %d", m, i, key)
				}
			}
		}
	}
}

func TestSerialPropagationSlowerThanBroadcast(t *testing.T) {
	latency := func(serial bool) int64 {
		tc := newTestCluster(mdl(core.Linearizable, core.Synchronous), 5, func(p *params.Params) {
			p.SerialPropagation = serial
		})
		var done int64 = -1
		tc.eng.Schedule(0, func() {
			tc.reps[0].ClientWrite(1, 0, 0, stampDone(func(Stamp) { done = tc.eng.Now() }), 0)
		})
		tc.run()
		return done
	}
	b, s := latency(false), latency(true)
	if b <= 0 || s <= 0 {
		t.Fatal("writes did not complete")
	}
	// The chain visits 4 followers serially: at least 3 extra one-way hops.
	if s < b+3*500 {
		t.Fatalf("serial write (%d) should trail broadcast (%d) by >= 3 hops", s, b)
	}
}

func TestSerialPropagationFewerMessages(t *testing.T) {
	msgs := func(serial bool) uint64 {
		tc := newTestCluster(mdl(core.Eventual, core.EventualP), 5, func(p *params.Params) {
			p.SerialPropagation = serial
			p.EventualLag = 0
		})
		tc.eng.Schedule(0, func() {
			tc.reps[0].ClientWrite(1, 0, 0, stampDone(func(Stamp) {}), 0)
		})
		tc.run()
		return tc.net.MessagesOfKind(int(MsgUPD))
	}
	b, s := msgs(false), msgs(true)
	if b != 4 || s != 4 {
		// Chain visits each follower once: same count, different shape —
		// the cost difference is latency, not message count.
		t.Fatalf("UPD counts: broadcast=%d serial=%d, want 4 and 4", b, s)
	}
}

func TestNoCoalescingIssuesMorePersists(t *testing.T) {
	persists := func(disable bool) uint64 {
		tc := newTestCluster(mdl(core.Eventual, core.Synchronous), 2, func(p *params.Params) {
			p.NoPersistCoalescing = disable
			p.EventualLag = 0
		})
		tc.eng.Schedule(0, func() {
			// Hammer a single key with concurrent writes so in-flight
			// persists overlap and coalescing has something to merge.
			for i := 0; i < 50; i++ {
				tc.reps[0].ClientWrite(7, 0, 0, stampDone(func(Stamp) {}), 0)
			}
		})
		tc.run()
		return tc.reps[0].M.Persists + tc.reps[1].M.Persists
	}
	with, without := persists(false), persists(true)
	if without <= with {
		t.Fatalf("disabling coalescing should issue more persists: with=%d without=%d", with, without)
	}
	if without != 100 {
		t.Fatalf("uncoalesced persists = %d, want exactly one per update per node (100)", without)
	}
}

func TestNoCoalescingPreservesDurability(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.Synchronous), 3, func(p *params.Params) {
		p.NoPersistCoalescing = true
	})
	done := false
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientWrite(3, 0, 0, stampDone(func(Stamp) { done = true }), 0)
	})
	tc.run()
	if !done {
		t.Fatal("write did not complete without coalescing")
	}
	for i, r := range tc.reps {
		if r.PersistedVersion(3).IsZero() {
			t.Fatalf("replica %d not persisted", i)
		}
	}
}
