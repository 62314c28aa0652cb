package protocol

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

// hybridCluster builds a 6-node cluster split into two 3-node groups.
func hybridCluster(m core.Model) *testCluster {
	return newTestCluster(m, 6, func(p *params.Params) {
		p.Groups = 2
		p.EventualLag = 2000
	})
}

func TestHybridWriteCompletesWithinGroup(t *testing.T) {
	flat := newTestCluster(mdl(core.Linearizable, core.Synchronous), 6, nil)
	var flatDone int64 = -1
	flat.eng.Schedule(0, func() {
		flat.reps[0].ClientWrite(3, 0, 0, stampDone(func(Stamp) { flatDone = flat.eng.Now() }), 0)
	})
	flat.run()

	hyb := hybridCluster(mdl(core.Linearizable, core.Synchronous))
	var hybDone int64 = -1
	hyb.eng.Schedule(0, func() {
		hyb.reps[0].ClientWrite(3, 0, 0, stampDone(func(Stamp) { hybDone = hyb.eng.Now() }), 0)
	})
	hyb.run()

	if flatDone < 0 || hybDone < 0 {
		t.Fatal("writes did not complete")
	}
	// The hybrid write waits for 2 group ACKs instead of 5 cluster ACKs; it
	// must not be slower than the flat write.
	if hybDone > flatDone {
		t.Fatalf("hybrid write (%d) slower than flat (%d)", hybDone, flatDone)
	}
}

func TestHybridUpdatesEventuallyReachRemoteGroups(t *testing.T) {
	hyb := hybridCluster(mdl(core.Linearizable, core.Synchronous))
	hyb.eng.Schedule(0, func() {
		hyb.reps[0].ClientWrite(3, 0, 0, stampDone(func(Stamp) {}), 0)
	})
	hyb.run()
	for i, r := range hyb.reps {
		if r.VisibleVersion(3).IsZero() {
			t.Fatalf("node %d (remote group) never received the update", i)
		}
		if r.PersistedVersion(3).IsZero() {
			t.Fatalf("node %d never persisted under Synchronous", i)
		}
	}
}

func TestHybridRemoteGroupReadsDoNotStall(t *testing.T) {
	hyb := hybridCluster(mdl(core.Linearizable, core.EventualP))
	var remoteReadDone int64 = -1
	hyb.eng.Schedule(0, func() {
		hyb.reps[0].ClientWrite(3, 0, 0, stampDone(func(Stamp) {}), 0)
	})
	// Node 4 is in the other group: its read must not wait for any VAL —
	// the eventual tier has no transient state.
	hyb.eng.Schedule(700, func() {
		hyb.reps[4].ClientRead(3, 0, stampDone(func(Stamp) { remoteReadDone = hyb.eng.Now() }), 0)
	})
	hyb.run()
	if remoteReadDone < 0 {
		t.Fatal("remote-group read did not complete")
	}
	if remoteReadDone > 700+2000 {
		t.Fatalf("remote-group read stalled until %d; the eventual tier must not stall", remoteReadDone)
	}
	if hyb.reps[4].M.ReadStalls != 0 {
		t.Fatal("remote-group reads must not stall under hybrid consistency")
	}
}

func TestHybridGroupIsolationOfVALs(t *testing.T) {
	hyb := hybridCluster(mdl(core.Linearizable, core.Synchronous))
	hyb.eng.Schedule(0, func() {
		hyb.reps[0].ClientWrite(3, 0, 0, stampDone(func(Stamp) {}), 0)
	})
	hyb.run()
	// INV/ACK/VAL stayed inside the 3-node group: 2 INVs, 2 ACKs, 2 VALs.
	if got := hyb.net.MessagesOfKind(int(MsgINV)); got != 2 {
		t.Fatalf("INV count = %d, want 2 (group only)", got)
	}
	if got := hyb.net.MessagesOfKind(int(MsgVAL)); got != 2 {
		t.Fatalf("VAL count = %d, want 2 (group only)", got)
	}
	// The remaining 3 nodes learned via lazy UPDs.
	if got := hyb.net.MessagesOfKind(int(MsgUPD)); got != 3 {
		t.Fatalf("UPD count = %d, want 3 (remote groups)", got)
	}
}

func TestHybridReadEnforcedConsistency(t *testing.T) {
	hyb := hybridCluster(mdl(core.ReadEnforcedC, core.Synchronous))
	var wrDone, localRead int64 = -1, -1
	hyb.eng.Schedule(0, func() {
		hyb.reps[0].ClientWrite(3, 0, 0, stampDone(func(Stamp) { wrDone = hyb.eng.Now() }), 0)
	})
	// A group-local read must stall until the group VAL.
	hyb.eng.Schedule(700, func() {
		hyb.reps[1].ClientRead(3, 0, stampDone(func(Stamp) { localRead = hyb.eng.Now() }), 0)
	})
	hyb.run()
	if wrDone < 0 || localRead < 0 {
		t.Fatal("ops incomplete")
	}
	if wrDone > hyb.p.NetRoundTrip {
		t.Fatalf("RE write should complete locally, took %d", wrDone)
	}
	if hyb.reps[1].M.ReadStalls != 1 {
		t.Fatal("group-local read should stall until VAL")
	}
}

func TestSerialPropagationWithHybridGroups(t *testing.T) {
	// Serial chains respect group boundaries: the INV ring covers only the
	// local group; remote groups converge via the lazy UPD tier.
	tc := newTestCluster(mdl(core.Linearizable, core.Synchronous), 6, func(p *params.Params) {
		p.Groups = 2
		p.SerialPropagation = true
		p.EventualLag = 1000
	})
	done := false
	tc.eng.Schedule(0, func() {
		tc.reps[0].ClientWrite(1, 0, 0, stampDone(func(Stamp) { done = true }), 0)
	})
	tc.run()
	if !done {
		t.Fatal("write did not complete")
	}
	for i, r := range tc.reps {
		if r.VisibleVersion(1).IsZero() {
			t.Fatalf("replica %d missing update", i)
		}
	}
	// The chained INV visited exactly the two group peers.
	if got := tc.net.MessagesOfKind(int(MsgINV)); got != 2 {
		t.Fatalf("INV hops = %d, want 2 (group ring only)", got)
	}
}
