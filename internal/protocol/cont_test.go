package protocol

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

// ackLog makes r log, through its tracer, the target rank of every message
// it sends: a continuation ackTo(MsgACK, to, 0) logs to as it runs, so
// continuations told apart by their targets leave their run order in the log.
// also, if set, runs with each target inside the send — from within the
// continuation that sent it.
func ackLog(r *Replica, also func(to int)) *[]int {
	var log []int
	r.tracer = func(e Event) {
		if e.Kind == EvSend {
			log = append(log, e.Peer)
			if also != nil {
				also(e.Peer)
			}
		}
	}
	return &log
}

// TestPersistContinuationOrder pins the per-key continuation FIFO through a
// coalesced write-back: continuations run in the order they were filed, only
// once their stamp is covered, and one that re-enters persist() for the key
// queues behind nothing it should not — its entry rides the follow-up
// write-back together with the ones the first left uncovered. Each
// continuation is an ACK to its own rank; the one to rank 1 files the ACK to
// rank 4 as it runs.
func TestPersistContinuationOrder(t *testing.T) {
	tc := newTestCluster(mdl(core.Eventual, core.Synchronous), 5, nil)
	r := tc.reps[0]
	reentered := false
	log := ackLog(r, func(to int) {
		if to == 1 && !reentered {
			reentered = true
			r.persist(3, 4, ackTo(MsgACK, 4, 0))
		}
	})
	tc.eng.Schedule(0, func() {
		r.persist(3, 1, ackTo(MsgACK, 1, 0))
		r.persist(3, 2, ackTo(MsgACK, 2, 0))
		r.persist(3, 3, ackTo(MsgACK, 3, 0))
		if len(*log) != 0 {
			t.Error("a continuation ran inside persist()")
		}
	})
	tc.run()
	if want := []int{1, 4, 2, 3}; fmt.Sprint(*log) != fmt.Sprint(want) {
		t.Fatalf("continuations ran as %v, want %v", *log, want)
	}
	if r.M.Persists != 2 || r.PersistedVersion(3) != 4 {
		t.Fatalf("persists=%d persisted=%v, want 2 coalesced write-backs ending at stamp 4", r.M.Persists, r.PersistedVersion(3))
	}
	if r.arena.conts.Slots() > 3 {
		t.Fatalf("continuation slab grew to %d slots for at most 3 waiting at once", r.arena.conts.Slots())
	}

	// A stamp that is already durable: the continuation still runs from an
	// event, never inside persist(), and no device write is issued.
	tc.eng.Schedule(0, func() {
		r.persist(3, 2, ackTo(MsgACKp, 1, 0))
		if len(*log) != 4 {
			t.Error("the continuation of a covered stamp ran inside persist()")
		}
	})
	tc.run()
	if want := []int{1, 4, 2, 3, 1}; fmt.Sprint(*log) != fmt.Sprint(want) || r.M.Persists != 2 {
		t.Fatalf("log=%v persists=%d, want the covered continuation run and no new write-back", *log, r.M.Persists)
	}
}

// TestPersistItemsFanIn: a batch's continuation runs once, after its last
// item is durable; an empty batch continues at once. The empty batch's
// continuation ACKs rank 1, the full one's rank 2.
func TestPersistItemsFanIn(t *testing.T) {
	for _, ablate := range []bool{false, true} {
		tc := newTestCluster(mdl(core.Eventual, core.Synchronous), 3, func(p *params.Params) {
			p.NoPersistCoalescing = ablate
		})
		r := tc.reps[0]
		log := ackLog(r, func(to int) {
			if to != 2 {
				return
			}
			for _, k := range []uint64{1, 2} {
				if r.PersistedVersion(k).IsZero() {
					t.Errorf("batch continued before key %d was durable", k)
				}
			}
		})
		tc.eng.Schedule(0, func() {
			r.persistItems(nil, ackTo(MsgACK, 1, 0))
			if len(*log) != 1 {
				t.Error("an empty batch did not continue at once")
			}
			r.persistItems([]persistItem{{key: 1, stamp: 1}, {key: 2, stamp: 1}, {key: 1, stamp: 2}}, ackTo(MsgACK, 2, 0))
		})
		tc.run()
		if fmt.Sprint(*log) != "[1 2]" {
			t.Fatalf("coalescing off=%v: log=%v, want each batch continued exactly once", ablate, *log)
		}
		if r.arena.fanIns.Slots() != 1 || r.arena.fanIns.Put(fanIn{}) != 1 { // the one slot is free
			t.Fatalf("coalescing off=%v: fan-in slot not recycled", ablate)
		}
	}
}

// TestStaleContinuationFindsNothing: a continuation names its record by
// stamp or id, so one that outlives the record is a no-op rather than a
// write through a recycled pointer.
func TestStaleContinuationFindsNothing(t *testing.T) {
	tc := newTestCluster(mdl(core.Transactional, core.Synchronous), 3, nil)
	r := tc.reps[0]
	before := r.M
	r.run(cont{kind: contLocalPersist}, 1, MakeStamp(99, 0))
	r.run(cont{kind: contTxnInit, arg: 12345}, 0, 0)
	r.run(cont{kind: contTxnEnd, arg: 12345}, 0, 0)
	tc.run()
	if r.M != before || len(r.pending) != 0 || len(r.txns) != 0 || tc.net.Messages() != 0 {
		t.Fatal("a continuation for a write and a transaction that no longer exist had an effect")
	}
}

// TestScopeBarriersArriveInSessionOrder is the ground under the per-session
// closed high-water mark (scopeIsClosed): sessions that each wait for their
// barrier before issuing the next see, at every replica, exactly the scopes
// up to the barrier closed — including for writes that arrive after it under
// lazy propagation — and the table stays O(sessions) over 10,000 scopes.
func TestScopeBarriersArriveInSessionOrder(t *testing.T) {
	const sessions, perSession = 4, 2500
	for _, c := range []core.Consistency{core.Linearizable, core.Eventual} {
		tc := newTestCluster(mdl(c, core.Scope), 3, nil)
		closed := 0
		var loop func(session, seq uint64)
		loop = func(session, seq uint64) {
			if seq > perSession {
				return
			}
			r := tc.reps[session%3]
			scope := session<<32 | seq
			r.ClientWrite(seq%64, scope, 0, stampDone(func(Stamp) {
				r.ClientPersistScope(scope, scopeDone(func() {
					closed++
					for i, rep := range tc.reps {
						if !rep.scopeIsClosed(scope) || rep.scopeIsClosed(scope+1) {
							t.Fatalf("%v: replica %d after barrier %d of session %d: closed(%d)=%v closed(%d)=%v",
								c, i, seq, session, seq, rep.scopeIsClosed(scope), seq+1, rep.scopeIsClosed(scope+1))
						}
					}
					loop(session, seq+1)
				}), 0)
			}), 0)
		}
		tc.eng.Schedule(0, func() {
			for s := uint64(1); s <= sessions; s++ {
				loop(s, 1)
			}
		})
		tc.run()
		if closed != sessions*perSession {
			t.Fatalf("%v: %d barriers completed, want %d", c, closed, sessions*perSession)
		}
		for i, rep := range tc.reps {
			if len(rep.scopeClosed) > sessions {
				t.Fatalf("%v: replica %d tracks %d closed-scope entries for %d sessions", c, i, len(rep.scopeClosed), sessions)
			}
			if rep.ScopeBacklog() != 0 || len(rep.scopePending) != 0 {
				t.Fatalf("%v: replica %d left %d writes in %d open scopes", c, i, rep.ScopeBacklog(), len(rep.scopePending))
			}
			for k := uint64(0); k < 64; k++ {
				if rep.PersistedVersion(k) != rep.VisibleVersion(k) {
					t.Fatalf("%v: replica %d key %d persisted %v, visible %v: a scoped write was never made durable",
						c, i, k, rep.PersistedVersion(k), rep.VisibleVersion(k))
				}
			}
		}
	}
}
