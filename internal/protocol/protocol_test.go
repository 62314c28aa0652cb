package protocol

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/memhier"
	"repro/internal/nvm"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// testCluster wires a minimal simulated cluster for protocol unit tests.
type testCluster struct {
	eng  *sim.Engine
	net  *simnet.Network
	reps []*Replica
	p    params.Params
}

func newTestCluster(model core.Model, servers int, mutate func(*params.Params)) *testCluster {
	p := params.Default()
	p.Servers = servers
	p.Keys = 64
	if mutate != nil {
		mutate(&p)
	}
	eng := sim.New()
	net := simnet.New(eng, simnet.Config{
		Nodes:      servers,
		OneWayLat:  p.OneWayNet(),
		Bandwidth:  p.NetBandwidth,
		QueuePairs: p.QueuePairs,
	})
	tc := &testCluster{eng: eng, net: net, p: p}
	rng := sim.NewRNG(1)
	store, _ := engines.ProfileOf("hashtable")
	for i := 0; i < servers; i++ {
		tc.reps = append(tc.reps, NewReplica(i, Deps{
			Eng:     eng,
			P:       p,
			Model:   model,
			Net:     net,
			NVM:     nvm.New(eng, nvm.NVMConfig(p.NVMReadLat, p.NVMWriteLat, p.NVMChannels, p.NVMBanks)),
			Mem:     memhier.New(p, rng.Fork()),
			Workers: sim.NewPool(eng, p.WorkersPerServer),
			Store:   store,
		}))
	}
	return tc
}

func (tc *testCluster) run() { tc.eng.RunAll() }

func mdl(c core.Consistency, p core.Persistency) core.Model { return core.Model{C: c, P: p} }

// Typed views of the Func adapter for the tests' client calls: each decodes
// the call's result (see Completer).
func stampDone(f func(Stamp)) Func { return func(v uint64) { f(Stamp(v)) } }
func countDone(f func(int)) Func   { return func(v uint64) { f(int(v)) } }
func okDone(f func(bool)) Func     { return func(v uint64) { f(v != 0) } }
func scopeDone(f func()) Func      { return func(uint64) { f() } }

// initDone splits ClientInitTxn's two completions: the id, then 0 on a
// squash (abort may be nil).
func initDone(abort func(), f func(txn uint64)) Func {
	return func(v uint64) {
		switch {
		case v != 0:
			f(v)
		case abort != nil:
			abort()
		}
	}
}

func TestLinSyncWriteWaitsForAllPersists(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.Synchronous), 3, nil)
	var doneAt int64 = -1
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientWrite(5, 0, 0, stampDone(func(Stamp) { doneAt = tc.eng.Now() }), 0)
	})
	tc.run()
	if doneAt < 0 {
		t.Fatal("write never completed")
	}
	// Must cover at least one network round trip plus two serial NVM writes.
	min := tc.p.NetRoundTrip + 2*tc.p.NVMWriteLat
	if doneAt < min {
		t.Fatalf("write completed at %d, faster than physically possible (%d)", doneAt, min)
	}
	// After completion all replicas hold the version both volatile and
	// persisted.
	for i, r := range tc.reps {
		if r.VisibleVersion(5).IsZero() {
			t.Fatalf("replica %d has no visible version", i)
		}
		if r.PersistedVersion(5) != r.VisibleVersion(5) {
			t.Fatalf("replica %d persisted %v != visible %v", i, r.PersistedVersion(5), r.VisibleVersion(5))
		}
	}
}

func TestReadEnforcedConsistencyWriteCompletesEarly(t *testing.T) {
	tcStrict := newTestCluster(mdl(core.Linearizable, core.Synchronous), 3, nil)
	var linDone int64
	tcStrict.eng.Schedule(0, func() {
		tcStrict.reps[0].ClientWrite(5, 0, 0, stampDone(func(Stamp) { linDone = tcStrict.eng.Now() }), 0)
	})
	tcStrict.run()

	tcRE := newTestCluster(mdl(core.ReadEnforcedC, core.Synchronous), 3, nil)
	var reDone int64
	tcRE.eng.Schedule(0, func() {
		tcRE.reps[0].ClientWrite(5, 0, 0, stampDone(func(Stamp) { reDone = tcRE.eng.Now() }), 0)
	})
	tcRE.run()

	if reDone >= linDone {
		t.Fatalf("Read-Enforced write (%d) should complete before Linearizable (%d)", reDone, linDone)
	}
	if reDone > tcRE.p.NetRoundTrip {
		t.Fatalf("Read-Enforced write took %d, should be local-only", reDone)
	}
}

func TestLinearizableReadStallsDuringWrite(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.Synchronous), 3, nil)
	var writeDone, readDone int64 = -1, -1
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientWrite(7, 0, 0, stampDone(func(Stamp) { writeDone = tc.eng.Now() }), 0)
	})
	// Read at a follower shortly after the INV lands there.
	tc.eng.Schedule(700, func() {
		tc.reps[1].ClientRead(7, 0, stampDone(func(Stamp) { readDone = tc.eng.Now() }), 0)
	})
	tc.run()
	if readDone < 0 || writeDone < 0 {
		t.Fatal("operations did not complete")
	}
	// The follower read must wait for the VAL, which the coordinator sends
	// at write completion; so the read finishes after the write.
	if readDone < writeDone {
		t.Fatalf("follower read (%d) returned before write validated (%d)", readDone, writeDone)
	}
	if tc.reps[1].M.ReadStalls != 1 {
		t.Fatalf("expected 1 read stall, got %d", tc.reps[1].M.ReadStalls)
	}
}

func TestLinearizableReadNoStallWhenIdle(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.Synchronous), 3, nil)
	var writeDone bool
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientWrite(7, 0, 0, stampDone(func(Stamp) { writeDone = true }), 0)
	})
	var readLat int64 = -1
	tc.eng.Schedule(50000, func() {
		start := tc.eng.Now()
		tc.reps[1].ClientRead(7, 0, stampDone(func(Stamp) { readLat = tc.eng.Now() - start }), 0)
	})
	tc.run()
	if !writeDone {
		t.Fatal("write did not complete")
	}
	if readLat < 0 || readLat > 2000 {
		t.Fatalf("idle read latency %d should be small and local", readLat)
	}
	if tc.reps[1].M.ReadStalls != 0 {
		t.Fatal("idle read should not stall")
	}
}

func TestLinReadEnforcedPersistencySplitsAcks(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.ReadEnforcedP), 3, nil)
	var writeDone, readDone int64 = -1, -1
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientWrite(3, 0, 0, stampDone(func(Stamp) { writeDone = tc.eng.Now() }), 0)
	})
	tc.eng.Schedule(700, func() {
		tc.reps[1].ClientRead(3, 0, stampDone(func(Stamp) { readDone = tc.eng.Now() }), 0)
	})
	tc.run()
	if writeDone < 0 || readDone < 0 {
		t.Fatal("operations did not complete")
	}
	// Figure 3a: the write completes on ACK_c; the read stalls until VAL_p,
	// which requires persists everywhere — so the read finishes well after
	// the write.
	if readDone <= writeDone {
		t.Fatalf("read (%d) should outlast the write (%d) under Read-Enforced persistency", readDone, writeDone)
	}
	if tc.net.MessagesOfKind(int(MsgACKc)) != 2 || tc.net.MessagesOfKind(int(MsgACKp)) != 2 {
		t.Fatalf("expected 2 ACK_c and 2 ACK_p, got %d and %d",
			tc.net.MessagesOfKind(int(MsgACKc)), tc.net.MessagesOfKind(int(MsgACKp)))
	}
	if tc.net.MessagesOfKind(int(MsgVALp)) != 2 {
		t.Fatalf("expected VAL_p broadcast, got %d", tc.net.MessagesOfKind(int(MsgVALp)))
	}
}

func TestCausalBuffersOutOfOrderUpdates(t *testing.T) {
	tc := newTestCluster(mdl(core.Causal, core.EventualP), 3, nil)
	// Node 0 writes k1 then k2 (k2 causally after k1). We deliver them to
	// node 1 via the real network (FIFO), so no buffering there; node 2 is
	// exercised by injecting the deliveries out of order directly.
	r2 := tc.reps[2]
	tc.eng.Schedule(0, func() {
		// Handcraft two causally ordered updates from node 0.
		upd1 := payload{Kind: MsgUPD, Key: 1, Stamp: MakeStamp(1, 0), Cauhist: []uint64{1, 0, 0}}
		upd2 := payload{Kind: MsgUPD, Key: 2, Stamp: MakeStamp(2, 0), Cauhist: []uint64{2, 0, 0}}
		r2.dispatch(0, &upd2) // arrives first: must buffer
		if r2.BufferLen() != 1 {
			t.Errorf("buffer = %d after early upd2, want 1", r2.BufferLen())
		}
		if !r2.VisibleVersion(2).IsZero() {
			t.Error("upd2 applied before its causal dependency")
		}
		r2.dispatch(0, &upd1) // unblocks upd2
	})
	tc.run()
	if r2.BufferLen() != 0 {
		t.Fatalf("buffer not drained: %d", r2.BufferLen())
	}
	if r2.VisibleVersion(1).IsZero() || r2.VisibleVersion(2).IsZero() {
		t.Fatal("updates not applied after reorder")
	}
	if r2.M.BufferedUpdates != 1 {
		t.Fatalf("buffered count = %d, want 1", r2.M.BufferedUpdates)
	}
}

func TestCausalEndToEndPropagation(t *testing.T) {
	tc := newTestCluster(mdl(core.Causal, core.Synchronous), 3, nil)
	var wdone int64 = -1
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientWrite(9, 0, 0, stampDone(func(Stamp) { wdone = tc.eng.Now() }), 0)
	})
	tc.run()
	if wdone < 0 {
		t.Fatal("write did not complete")
	}
	// Causal writes return without waiting for the network.
	if wdone > tc.p.NetRoundTrip {
		t.Fatalf("causal write took %d, should not wait for followers", wdone)
	}
	for i, r := range tc.reps {
		if r.VisibleVersion(9).IsZero() {
			t.Fatalf("replica %d missing the update", i)
		}
		if r.PersistedVersion(9).IsZero() {
			t.Fatalf("replica %d did not persist under Synchronous", i)
		}
	}
}

// TestCausalSynchronousReadsServePersistedVersion checks that a read under
// <Causal, Sync> serves the persisted version, not the visible one (Figure
// 2e-h): a read issued as the write completes is served while the write's
// persist is still in flight, and must return the stamp the node had
// persisted at that instant. The replica's tracer emits EvRead for k4 as the
// read is served, in the same event and just before readAttempt, so the test
// takes both stamps there.
func TestCausalSynchronousReadsServePersistedVersion(t *testing.T) {
	tc := newTestCluster(mdl(core.Causal, core.Synchronous), 2, func(p *params.Params) {
		p.RequestCompute = 1 // serve the read well inside the 400-ns persist
	})
	r0 := tc.reps[0]
	var visibleAt, persistedAt Stamp
	served := false
	r0.tracer = func(e Event) {
		if e.Kind == EvRead && e.Key == 4 {
			served = true
			visibleAt, persistedAt = r0.VisibleVersion(4), r0.PersistedVersion(4)
		}
	}
	var written, returned Stamp
	tc.eng.Schedule(0, func() {
		r0.ClientWrite(4, 0, 0, stampDone(func(st Stamp) {
			written = st
			r0.ClientRead(4, 0, stampDone(func(st Stamp) { returned = st }), 0)
		}), 0)
	})
	tc.run()
	if !served || written.IsZero() {
		t.Fatalf("read served %v, write stamped %v: the run did not exercise the read", served, written)
	}
	if visibleAt != written || persistedAt >= visibleAt {
		t.Fatalf("read served with visible %v, persisted %v: want the write %v visible and not yet persisted", visibleAt, persistedAt, written)
	}
	if returned != persistedAt {
		t.Fatalf("read returned %v, want the version persisted when it was served (%v; visible %v)", returned, persistedAt, visibleAt)
	}
	if r0.PersistedVersion(4) != written {
		t.Fatal("write never persisted")
	}
}

func TestWeakReadEnforcedPersistencyStallsUntilPersist(t *testing.T) {
	tc := newTestCluster(mdl(core.Causal, core.ReadEnforcedP), 2, func(p *params.Params) {
		p.RequestCompute = 1
		p.MessageHandle = 1
	})
	r0 := tc.reps[0]
	var readDone int64 = -1
	var persistedAtRead Stamp
	tc.eng.Schedule(0, func() {
		r0.ClientWrite(4, 0, 0, stampDone(func(Stamp) {}), 0)
	})
	// Issue the read after the write became visible but well inside the
	// 400 ns NVM persist window, forcing the Read-Enforced persist stall.
	tc.eng.Schedule(100, func() {
		r0.ClientRead(4, 0, stampDone(func(Stamp) {
			readDone = tc.eng.Now()
			persistedAtRead = r0.PersistedVersion(4)
		}), 0)
	})
	tc.run()
	if readDone < 0 {
		t.Fatal("read did not complete")
	}
	if persistedAtRead < r0.VisibleVersion(4) {
		t.Fatal("read returned before the latest visible version persisted")
	}
	if r0.M.PersistConflictReads != 1 {
		t.Fatalf("persist-conflict reads = %d, want 1", r0.M.PersistConflictReads)
	}
}

func TestEventualConsistencyLazyPropagation(t *testing.T) {
	tc := newTestCluster(mdl(core.Eventual, core.EventualP), 3, func(p *params.Params) {
		p.EventualLag = 10000
	})
	var arrived int64 = -1
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientWrite(2, 0, 0, stampDone(func(Stamp) {}), 0)
	})
	probe := func() {}
	probe = func() {
		if !tc.reps[1].VisibleVersion(2).IsZero() {
			if arrived < 0 {
				arrived = tc.eng.Now()
			}
			return
		}
		tc.eng.Schedule(100, probe)
	}
	tc.eng.Schedule(0, probe)
	tc.run()
	if arrived < 10000 {
		t.Fatalf("update visible at follower at %d, before the propagation lag", arrived)
	}
}

func TestEventualLastWriterWins(t *testing.T) {
	tc := newTestCluster(mdl(core.Eventual, core.EventualP), 2, func(p *params.Params) {
		p.EventualLag = 0
	})
	r1 := tc.reps[1]
	tc.eng.Schedule(0, func() {
		// Deliver two UPDs for the same key out of stamp order.
		r1.dispatch(0, &payload{Kind: MsgUPD, Key: 1, Stamp: MakeStamp(5, 0)})
		r1.dispatch(0, &payload{Kind: MsgUPD, Key: 1, Stamp: MakeStamp(3, 0)})
	})
	tc.run()
	if got := r1.VisibleVersion(1); got != MakeStamp(5, 0) {
		t.Fatalf("visible = %v, want the higher stamp to win", got)
	}
}

func TestStrictPersistencyStallsWeakWrites(t *testing.T) {
	strict := newTestCluster(mdl(core.Causal, core.Strict), 3, nil)
	var strictDone int64 = -1
	strict.eng.Schedule(0, func() {
		strict.reps[0].ClientWrite(1, 0, 0, stampDone(func(Stamp) { strictDone = strict.eng.Now() }), 0)
	})
	strict.run()

	sync := newTestCluster(mdl(core.Causal, core.Synchronous), 3, nil)
	var syncDone int64 = -1
	sync.eng.Schedule(0, func() {
		sync.reps[0].ClientWrite(1, 0, 0, stampDone(func(Stamp) { syncDone = sync.eng.Now() }), 0)
	})
	sync.run()

	if strictDone <= syncDone {
		t.Fatalf("Strict write (%d) should be slower than Synchronous (%d)", strictDone, syncDone)
	}
	if strictDone < strict.p.NetRoundTrip+strict.p.NVMWriteLat {
		t.Fatalf("Strict write (%d) completed before remote persists were possible", strictDone)
	}
	if strict.reps[0].M.WriteStalls != 1 {
		t.Fatalf("strict write stalls = %d, want 1", strict.reps[0].M.WriteStalls)
	}
}

func TestTransactionCommitFlow(t *testing.T) {
	tc := newTestCluster(mdl(core.Transactional, core.Synchronous), 3, nil)
	var txnID uint64
	committed := false
	tc.eng.Schedule(0, func() {
		r := tc.reps[0]
		r.ClientInitTxn(initDone(func() { t.Error("unexpected abort") }, func(id uint64) {
			txnID = id
			r.ClientWrite(10, 0, id, stampDone(func(Stamp) {
				r.ClientWrite(11, 0, id, stampDone(func(Stamp) {
					r.ClientEndTxn(id, okDone(func(ok bool) { committed = ok }), 0)
				}), 0)
			}), 0)
		}), 0)
	})
	tc.run()
	if txnID == 0 || !committed {
		t.Fatalf("transaction did not commit: id=%d committed=%v", txnID, committed)
	}
	for i, r := range tc.reps {
		for _, k := range []uint64{10, 11} {
			if r.VisibleVersion(k).IsZero() {
				t.Fatalf("replica %d missing txn write %d", i, k)
			}
			if r.PersistedVersion(k).IsZero() {
				t.Fatalf("replica %d: txn write %d not persisted at ENDX under Synchronous", i, k)
			}
			if r.keys.txnAt(k).lockTxn != 0 {
				t.Fatalf("replica %d: lock leaked on key %d", i, k)
			}
		}
	}
	if tc.reps[0].M.TxnCommitted != 1 || tc.reps[0].M.TxnSquashed != 0 {
		t.Fatalf("txn metrics wrong: %+v", tc.reps[0].M)
	}
}

func TestTransactionConflictSquashes(t *testing.T) {
	// Two transactions on different nodes write the same key with
	// overlapping propagation windows: the wound-wait tie-break squashes
	// exactly the younger one.
	tc := newTestCluster(mdl(core.Transactional, core.Synchronous), 3, nil)
	aborted := false
	var t1Commits bool
	tc.eng.Schedule(0, func() {
		r0, r1 := tc.reps[0], tc.reps[1]
		r0.ClientInitTxn(initDone(nil, func(id1 uint64) {
			r1.ClientInitTxn(initDone(func() { aborted = true }, func(id2 uint64) {
				// Issue both writes back to back so their INV rounds overlap.
				r0.ClientWrite(20, 0, id1, stampDone(func(Stamp) {
					tc.eng.Schedule(20000, func() {
						r0.ClientEndTxn(id1, okDone(func(ok bool) { t1Commits = ok }), 0)
					})
				}), 0)
				r1.ClientWrite(20, 0, id2, stampDone(func(Stamp) {}), 0)
			}), 0)
		}), 0)
	})
	tc.run()
	if !aborted {
		t.Fatal("conflicting transaction was not squashed")
	}
	if !t1Commits {
		t.Fatal("older transaction failed to commit")
	}
	total := tc.reps[0].M.TxnSquashed + tc.reps[1].M.TxnSquashed
	if total != 1 {
		t.Fatalf("squashes = %d, want exactly 1 (wound-wait kills one side)", total)
	}
	// Conflict-window locks must be fully released.
	for i, r := range tc.reps {
		if r.keys.txnAt(20).lockTxn != 0 {
			t.Fatalf("replica %d: lock leaked", i)
		}
	}
}

func TestTransactionReadsServeCommittedOnly(t *testing.T) {
	tc := newTestCluster(mdl(core.Transactional, core.EventualP), 2, nil)
	var beforeCommit, afterCommit Stamp
	tc.eng.Schedule(0, func() {
		r0 := tc.reps[0]
		r0.ClientInitTxn(initDone(nil, func(id1 uint64) {
			r0.ClientWrite(30, 0, id1, stampDone(func(Stamp) {
				// A concurrent read (snapshot flavor) must not observe the
				// uncommitted write and must not squash anything.
				r1 := tc.reps[1]
				tc.eng.Schedule(2000, func() {
					r1.ClientRead(30, 0, stampDone(func(st Stamp) { beforeCommit = st }), 0)
				})
				tc.eng.Schedule(10000, func() {
					r0.ClientEndTxn(id1, okDone(func(ok bool) {
						if !ok {
							t.Error("transaction failed to commit")
						}
						tc.eng.Schedule(20000, func() {
							r1.ClientRead(30, 0, stampDone(func(st Stamp) { afterCommit = st }), 0)
						})
					}), 0)
				})
			}), 0)
		}), 0)
	})
	tc.run()
	if !beforeCommit.IsZero() {
		t.Fatalf("read observed uncommitted version %v", beforeCommit)
	}
	if afterCommit.IsZero() {
		t.Fatal("read after commit still saw no committed version")
	}
	if tc.reps[0].M.TxnSquashed+tc.reps[1].M.TxnSquashed != 0 {
		t.Fatal("snapshot read should not squash")
	}
}

func TestScopePersistBarrier(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.Scope), 3, nil)
	const scope = 42
	var w1, w2, persisted int64 = -1, -1, -1
	tc.eng.Schedule(0, func() {
		r := tc.reps[0]
		r.ClientWrite(1, scope, 0, stampDone(func(Stamp) {
			w1 = tc.eng.Now()
			r.ClientWrite(2, scope, 0, stampDone(func(Stamp) {
				w2 = tc.eng.Now()
				r.ClientPersistScope(scope, scopeDone(func() { persisted = tc.eng.Now() }), 0)
			}), 0)
		}), 0)
	})
	tc.run()
	if w1 < 0 || w2 < 0 || persisted < 0 {
		t.Fatal("scope flow did not complete")
	}
	if persisted <= w2 {
		t.Fatal("persist barrier should take additional time after the writes")
	}
	for i, r := range tc.reps {
		for _, k := range []uint64{1, 2} {
			if r.PersistedVersion(k).IsZero() {
				t.Fatalf("replica %d: key %d not persisted after scope barrier", i, k)
			}
		}
		if r.ScopeBacklog() != 0 {
			t.Fatalf("replica %d: scope backlog not drained", i)
		}
	}
	// Writes before the barrier must not persist eagerly — check the
	// coordinator issued persists only at the barrier (plus event persists).
	if tc.reps[0].M.ScopePersists != 1 {
		t.Fatalf("scope persists = %d, want 1", tc.reps[0].M.ScopePersists)
	}
}

func TestScopeLateWritePersistsImmediately(t *testing.T) {
	tc := newTestCluster(mdl(core.Causal, core.Scope), 2, nil)
	r0 := tc.reps[0]
	tc.eng.Schedule(0, func() {
		r0.ClientPersistScope(7, scopeDone(func() {}), 0)
	})
	tc.eng.Schedule(5000, func() {
		// A write tagged with the already-closed scope persists right away.
		r0.ClientWrite(3, 7, 0, stampDone(func(Stamp) {}), 0)
	})
	tc.run()
	if r0.PersistedVersion(3).IsZero() {
		t.Fatal("late scoped write was never persisted")
	}
}

func TestSingleServerDegenerateCluster(t *testing.T) {
	for _, m := range core.AllModels() {
		tc := newTestCluster(m, 1, nil)
		completed := 0
		tc.eng.Schedule(0, func() {
			r := tc.reps[0]
			switch m.C {
			case core.Transactional:
				r.ClientInitTxn(initDone(nil, func(id uint64) {
					r.ClientWrite(1, 1, id, stampDone(func(Stamp) {
						r.ClientRead(1, id, stampDone(func(Stamp) {
							r.ClientEndTxn(id, okDone(func(ok bool) {
								if ok {
									completed++
								}
							}), 0)
						}), 0)
					}), 0)
				}), 0)
			default:
				r.ClientWrite(1, 1, 0, stampDone(func(Stamp) {
					r.ClientRead(1, 0, stampDone(func(Stamp) { completed++ }), 0)
				}), 0)
			}
		})
		tc.run()
		if completed != 1 {
			t.Fatalf("%s: single-server flow did not complete", m)
		}
	}
}

// TestVPDPConformanceAllModels drives one write+read through every model and
// checks the invariants implied by Table 2.
func TestVPDPConformanceAllModels(t *testing.T) {
	for _, m := range core.AllModels() {
		if m.C == core.Transactional {
			continue // covered by the transaction tests above
		}
		m := m
		t.Run(m.String(), func(t *testing.T) {
			tc := newTestCluster(m, 3, nil)
			var writeDone int64 = -1
			tc.eng.Schedule(0, func() {
				tc.reps[0].ClientWrite(8, 1, 0, stampDone(func(Stamp) { writeDone = tc.eng.Now() }), 0)
			})
			tc.run()
			if writeDone < 0 {
				t.Fatal("write never completed")
			}
			// VP conformance: after quiescence every replica sees the value.
			for i, r := range tc.reps {
				if r.VisibleVersion(8).IsZero() {
					t.Fatalf("replica %d never reached the visibility point", i)
				}
			}
			// DP conformance: Strict and Synchronous guarantee persistence
			// everywhere at quiescence; Read-Enforced persists in the
			// background (also done at quiescence); Eventual persists
			// lazily (done at quiescence). Scope requires a barrier, so
			// nothing must be persisted without one.
			for i, r := range tc.reps {
				persisted := !r.PersistedVersion(8).IsZero()
				if m.P == core.Scope && persisted {
					t.Fatalf("replica %d persisted without a scope barrier", i)
				}
				if m.P != core.Scope && !persisted {
					t.Fatalf("replica %d never reached the durability point", i)
				}
			}
			// Strict DP: the write completion must come after remote
			// persists were possible (a full round trip plus NVM write).
			if m.P == core.Strict && writeDone < tc.p.NetRoundTrip+tc.p.NVMWriteLat {
				t.Fatalf("write completed at %d, before Strict persistence was possible", writeDone)
			}
		})
	}
}

func TestStampPacking(t *testing.T) {
	st := MakeStamp(123456, 3)
	if st.TS() != 123456 || st.Node() != 3 {
		t.Fatalf("stamp unpacked wrong: %v", st)
	}
	if MakeStamp(1, 0).IsZero() {
		t.Fatal("nonzero stamp reported zero")
	}
	if !Stamp(0).IsZero() {
		t.Fatal("zero stamp not recognized")
	}
	// Ordering: higher TS wins; ties broken by node.
	if MakeStamp(2, 0) <= MakeStamp(1, 7) {
		t.Fatal("timestamp should dominate node id")
	}
	if MakeStamp(1, 2) <= MakeStamp(1, 1) {
		t.Fatal("node id should break ties")
	}
	if st.String() != "123456.3" {
		t.Fatalf("stamp string = %q", st.String())
	}
}

func TestMessageKindStrings(t *testing.T) {
	kinds := []MsgKind{MsgINV, MsgACK, MsgACKc, MsgACKp, MsgVAL, MsgVALc,
		MsgVALp, MsgUPD, MsgINITX, MsgENDX, MsgPERSIST, MsgNACK, MsgABORTX}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "MSG?" || seen[s] {
			t.Fatalf("bad or duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if MsgKind(99).String() != "MSG?" {
		t.Fatal("unknown kind should render MSG?")
	}
}

func TestMetricsAdd(t *testing.T) {
	a := Metrics{Reads: 1, Writes: 2, BufferPeak: 5, TxnCommitted: 6, TxnSquashed: 3, TxnConflicted: 2}
	b := Metrics{Reads: 9, BufferPeak: 3, TxnCommitted: 10, TxnSquashed: 1, TxnConflicted: 2, PersistConflictReads: 2}
	a.Add(&b)
	if a.Reads != 10 || a.Writes != 2 || a.BufferPeak != 5 {
		t.Fatalf("add wrong: %+v", a)
	}
	// 4 conflicted of 20 finished (16 committed + 4 squashed).
	if got := a.TxnConflictRate(); got != 0.2 {
		t.Fatalf("conflict rate = %g, want 0.2", got)
	}
	if got := a.ReadConflictRate(); got != 0.2 {
		t.Fatalf("read conflict rate = %g, want 0.2", got)
	}
	var zero Metrics
	if zero.TxnConflictRate() != 0 || zero.ReadConflictRate() != 0 || zero.MeanBuffered() != 0 {
		t.Fatal("zero metrics should report zero rates")
	}
}

func TestTrafficDiffersAcrossModels(t *testing.T) {
	bytesFor := func(m core.Model) uint64 {
		tc := newTestCluster(m, 5, nil)
		done := 0
		tc.eng.Schedule(0, func() {
			for i := 0; i < 10; i++ {
				tc.reps[0].ClientWrite(uint64(i), 0, 0, stampDone(func(Stamp) { done++ }), 0)
			}
		})
		tc.run()
		if done != 10 {
			t.Fatalf("%s: %d of 10 writes completed", m, done)
		}
		return tc.net.Bytes()
	}
	linSync := bytesFor(mdl(core.Linearizable, core.Synchronous))
	linREP := bytesFor(mdl(core.Linearizable, core.ReadEnforcedP))
	evEv := bytesFor(mdl(core.Eventual, core.EventualP))
	causal := bytesFor(mdl(core.Causal, core.EventualP))
	if linREP <= linSync {
		t.Fatalf("double-ACK Read-Enforced persistency (%d) should exceed Synchronous traffic (%d)", linREP, linSync)
	}
	if evEv >= linSync {
		t.Fatalf("Eventual/Eventual traffic (%d) should be below Linearizable/Synchronous (%d)", evEv, linSync)
	}
	if causal <= evEv {
		t.Fatalf("causal traffic (%d) should exceed eventual (%d) due to cauhists", causal, evEv)
	}
}

func TestClientScanOrderedEngine(t *testing.T) {
	tc := newTestCluster(mdl(core.Causal, core.EventualP), 2, nil)
	r0 := tc.reps[0]
	var count int = -1
	tc.eng.Schedule(0, func() {
		var write func(i uint64)
		write = func(i uint64) {
			if i == 10 {
				r0.ClientScan(2, 5, countDone(func(n int) { count = n }), 0)
				return
			}
			r0.ClientWrite(i, 0, 0, stampDone(func(Stamp) { write(i + 1) }), 0)
		}
		write(0)
	})
	tc.run()
	if count != 5 {
		t.Fatalf("scan returned %d keys, want 5", count)
	}
}

func TestClientScanStallsLikeARead(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.Synchronous), 3, nil)
	var scanDone, writeDone int64 = -1, -1
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientWrite(5, 0, 0, stampDone(func(Stamp) { writeDone = tc.eng.Now() }), 0)
	})
	tc.eng.Schedule(700, func() {
		tc.reps[1].ClientScan(5, 3, countDone(func(int) { scanDone = tc.eng.Now() }), 0)
	})
	tc.run()
	if scanDone < 0 || writeDone < 0 {
		t.Fatal("ops did not complete")
	}
	if scanDone < writeDone {
		t.Fatalf("scan (%d) should stall on the in-flight write (%d)", scanDone, writeDone)
	}
}

func TestClientRMWWritesAfterRead(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.Synchronous), 3, nil)
	var st Stamp
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientRMW(8, 0, 0, stampDone(func(s Stamp) { st = s }), 0)
	})
	tc.run()
	if st.IsZero() {
		t.Fatal("RMW produced no version")
	}
	for i, r := range tc.reps {
		if r.VisibleVersion(8) != st {
			t.Fatalf("replica %d missing RMW write", i)
		}
		if r.PersistedVersion(8) != st {
			t.Fatalf("replica %d RMW write not persisted", i)
		}
	}
}

func TestRMWInsideTransaction(t *testing.T) {
	tc := newTestCluster(mdl(core.Transactional, core.Synchronous), 3, nil)
	committed := false
	tc.eng.Schedule(0, func() {
		r := tc.reps[0]
		r.ClientInitTxn(initDone(nil, func(id uint64) {
			r.ClientRMW(5, 0, id, stampDone(func(Stamp) {
				r.ClientEndTxn(id, okDone(func(ok bool) { committed = ok }), 0)
			}), 0)
		}), 0)
	})
	tc.run()
	if !committed {
		t.Fatal("RMW transaction did not commit")
	}
	for i, r := range tc.reps {
		if r.PersistedVersion(5).IsZero() {
			t.Fatalf("replica %d: RMW write not persisted at commit", i)
		}
	}
}

func TestScanOnEmptyRange(t *testing.T) {
	tc := newTestCluster(mdl(core.Causal, core.EventualP), 2, nil)
	count := -1
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientScan(50, 10, countDone(func(n int) { count = n }), 0)
	})
	tc.run()
	if count != 0 {
		t.Fatalf("scan of empty range returned %d", count)
	}
}

func TestScopeVALpIgnoredByKeyState(t *testing.T) {
	// A scope-level VAL_p carries no key; dispatching it must not corrupt
	// key state or panic.
	tc := newTestCluster(mdl(core.Linearizable, core.Scope), 2, nil)
	tc.eng.Schedule(0, func() {
		tc.reps[1].dispatch(0, &payload{Kind: MsgVALp, Scope: 9})
	})
	tc.run()
	if got := tc.reps[1].VisibleVersion(0); !got.IsZero() {
		t.Fatalf("scope VAL_p mutated key state: %v", got)
	}
}

func TestStaleAckIgnored(t *testing.T) {
	// ACKs for unknown stamps (e.g. duplicated or post-completion) no-op.
	tc := newTestCluster(mdl(core.Linearizable, core.Synchronous), 2, nil)
	tc.eng.Schedule(0, func() {
		tc.reps[0].dispatch(1, &payload{Kind: MsgACK, Stamp: MakeStamp(99, 1)})
		tc.reps[0].dispatch(1, &payload{Kind: MsgACKp, Stamp: MakeStamp(99, 1)})
		tc.reps[0].dispatch(1, &payload{Kind: MsgACKc, Stamp: MakeStamp(99, 1)})
	})
	tc.run() // must not panic
}

// TestReplicaBuildsOnlyTheMapsItsBindingWrites pins NewReplica's gate on the
// binding: the transaction tables exist under Transactional consistency
// only, no binding builds per-key read-stall state (it lives in a key's busy
// record, taken when the key is first busy), the three scope tables exist
// under Scope persistency only (a nil map reads as empty), and a client call
// that would write a table its binding lacks panics at the call, naming the
// binding.
func TestReplicaBuildsOnlyTheMapsItsBindingWrites(t *testing.T) {
	panics := func(call func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		call()
		return ""
	}
	ignore := Func(func(uint64) {})
	for _, m := range core.AllModels() {
		r := newTestCluster(m, 2, nil).reps[0]
		txn, scope := m.C == core.Transactional, m.P == core.Scope
		if (r.txns != nil) != txn || (r.keys.txn != nil) != txn {
			t.Errorf("%v: transaction tables built = %v %v, want %v", m, r.txns != nil, r.keys.txn != nil, txn)
		}
		// No binding builds per-key read-stall state up front: a key takes
		// a busy record only when something is in flight on it, and the
		// key table's only per-key tables are its slots and txn.
		if n := r.arena.busy.Slots(); n != 0 {
			t.Errorf("%v: %d busy records built before any request", m, n)
		}
		kt := reflect.ValueOf(r.keys)
		for i := 0; i < kt.NumField(); i++ {
			if f := kt.Type().Field(i); f.Type.Kind() == reflect.Slice && f.Name != "slots" && f.Name != "index" && f.Name != "txn" && !kt.Field(i).IsNil() {
				t.Errorf("%v: key table builds a per-key %s table of %d entries up front", m, f.Name, kt.Field(i).Len())
			}
		}
		if (r.scopePending != nil) != scope || (r.scopeClosed != nil) != scope || (r.scopeOps != nil) != scope {
			t.Errorf("%v: scope tables built = %v %v %v, want %v", m,
				r.scopePending != nil, r.scopeClosed != nil, r.scopeOps != nil, scope)
		}
		if msg := panics(func() { r.ClientInitTxn(ignore, 0) }); !txn && !strings.Contains(msg, m.String()) {
			t.Errorf("%v: ClientInitTxn panicked with %q, want a panic naming the binding", m, msg)
		}
		if msg := panics(func() { r.ClientPersistScope(1, ignore, 0) }); !scope && !strings.Contains(msg, m.String()) {
			t.Errorf("%v: ClientPersistScope panicked with %q, want a panic naming the binding", m, msg)
		}
	}
}
