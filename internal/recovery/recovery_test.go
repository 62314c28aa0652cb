package recovery

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/protocol"
	"repro/internal/ycsb"
)

func crashConfig(m core.Model) cluster.Config {
	p := params.Default()
	p.Servers = 3
	p.ClientsPerServer = 4
	p.Keys = 256
	return cluster.Config{
		Model:    m,
		Workload: ycsb.WorkloadA,
		Params:   p,
		Seed:     7,
	}
}

func mustCrash(t *testing.T, m core.Model) *CrashReport {
	t.Helper()
	rep, err := CrashAndRecover(crashConfig(m), 1_500_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckedWrites == 0 {
		t.Fatalf("%s: crash run acknowledged no writes", m)
	}
	return rep
}

func TestStrictModelsLoseNothing(t *testing.T) {
	for _, m := range []core.Model{
		{C: core.Linearizable, P: core.Strict},
		{C: core.Causal, P: core.Strict},
		{C: core.Eventual, P: core.Strict},
		{C: core.Linearizable, P: core.Synchronous},
	} {
		rep := mustCrash(t, m)
		if rep.LostAcked != 0 {
			t.Errorf("%s: lost %d of %d acknowledged writes; strict models must lose none",
				m, rep.LostAcked, rep.AckedWrites)
		}
		if !rep.NonStaleReads() {
			t.Errorf("%s: non-stale reads should hold", m)
		}
	}
}

func TestTransactionalSynchronousDurable(t *testing.T) {
	rep := mustCrash(t, core.Model{C: core.Transactional, P: core.Synchronous})
	if rep.LostAcked != 0 {
		t.Fatalf("committed transactional writes lost: %d of %d",
			rep.LostAcked, rep.AckedWrites)
	}
}

func TestRelaxedModelsLoseAckedWrites(t *testing.T) {
	// The at-risk window of an acknowledged-but-unpersisted write can be
	// well under a microsecond (e.g. Read-Enforced consistency with
	// Synchronous persistency), so probe several crash instants and require
	// that at least one catches in-flight writes.
	for _, m := range []core.Model{
		{C: core.ReadEnforcedC, P: core.Synchronous},
		{C: core.Causal, P: core.Synchronous},
		{C: core.Linearizable, P: core.EventualP},
		{C: core.Eventual, P: core.EventualP},
	} {
		lost := 0
		staleVerdicts := 0
		for _, at := range []int64{1_100_000, 1_400_000, 1_700_000, 2_000_000} {
			rep, err := CrashAndRecover(crashConfig(m), at, nil)
			if err != nil {
				t.Fatal(err)
			}
			lost += rep.LostAcked
			if !rep.NonStaleReads() {
				staleVerdicts++
			}
		}
		if lost == 0 {
			t.Errorf("%s: expected some acknowledged writes lost across 4 crash points", m)
		}
		if staleVerdicts == 0 {
			t.Errorf("%s: non-stale reads held at every crash point; should fail at least once", m)
		}
	}
}

func TestNoConfirmedDurableWriteEverLost(t *testing.T) {
	// The invariant that must hold for EVERY model: whatever the protocol
	// told the client was durable really is.
	for _, m := range core.AllModels() {
		rep := mustCrash(t, m)
		if rep.LostConfirmedDurable != 0 {
			t.Errorf("%s: %d confirmed-durable writes lost", m, rep.LostConfirmedDurable)
		}
	}
}

func TestScopeModelRecoversCompletedScopes(t *testing.T) {
	// A crash report keeps no history, so this test replays the crash path
	// itself to read every write.
	cfg := crashConfig(core.Model{C: core.Linearizable, P: core.Scope})
	cfg.TrackHistory = true
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := c.RunTo(1_500_000)
	rec := Recover(c, []int{0, 1, 2})
	// Scope runs must have executed barriers and their writes must survive;
	// unpersisted-scope writes may be lost.
	if res.Protocol.ScopePersists == 0 {
		t.Fatal("no scope barriers ran before the crash")
	}
	persisted := 0
	for _, w := range res.Writes {
		if w.ScopePersisted {
			persisted++
			if rec.VersionOf(w.Key) < w.Stamp {
				t.Fatalf("scope-persisted write on key %d lost", w.Key)
			}
		}
	}
	if persisted == 0 {
		t.Fatal("no scope-persisted writes recorded")
	}
}

func TestEventualConsistencyFailsLiveMonotonic(t *testing.T) {
	rep := mustCrash(t, core.Model{C: core.Eventual, P: core.EventualP})
	if rep.Live.Violations == 0 {
		t.Fatal("eventual consistency should show live monotonic-read violations")
	}
	if rep.MonotonicReads() {
		t.Fatal("eventual consistency must not pass the monotonic-reads verdict")
	}
}

func TestLinearizableHoldsLiveMonotonic(t *testing.T) {
	rep := mustCrash(t, core.Baseline)
	if !rep.Live.Holds() {
		t.Fatalf("linearizable runs must hold monotonic reads; %d/%d violations",
			rep.Live.Violations, rep.Live.ReadsChecked)
	}
	if !rep.MonotonicReads() {
		t.Fatal("monotonic verdict should hold for <Linearizable, Synchronous>")
	}
}

// TestRecoverReadsCrashedNodesNVMOnly crashes nodes 0 and 1 of three under
// <Eventual, Eventual>, where a node's own writes are visible before they
// persist or propagate: each recovered version is the newest of the crashed
// nodes' persisted versions and the survivor's visible and persisted ones,
// so a crashed node's visible versions do not vote, and Recover leaves every
// replica's versions as it found them.
func TestRecoverReadsCrashedNodesNVMOnly(t *testing.T) {
	cfg := crashConfig(core.Model{C: core.Eventual, P: core.EventualP})
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Eng.Run(1_000_000)
	type versions struct{ visible, persisted []protocol.Stamp }
	snapshot := func() []versions {
		out := make([]versions, len(c.Replicas))
		for i, r := range c.Replicas {
			for k := range uint64(cfg.Params.Keys) {
				out[i].visible = append(out[i].visible, r.VisibleVersion(k))
				out[i].persisted = append(out[i].persisted, r.PersistedVersion(k))
			}
		}
		return out
	}
	crashed := []int{0, 1}
	before := snapshot()
	rec := Recover(c, crashed)
	if after := snapshot(); !reflect.DeepEqual(after, before) {
		t.Fatal("Recover changed a replica's versions")
	}
	outvoted := 0
	for k := range uint64(cfg.Params.Keys) {
		var want, crashedVisible protocol.Stamp
		for i, v := range before {
			want = max(want, v.persisted[k])
			if slices.Contains(crashed, i) {
				crashedVisible = max(crashedVisible, v.visible[k])
			} else {
				want = max(want, v.visible[k])
			}
		}
		if got := rec.VersionOf(k); got != want {
			t.Fatalf("key %d recovered at %v, want %v", k, got, want)
		}
		if crashedVisible > want {
			outvoted++
		}
	}
	if outvoted == 0 {
		t.Fatal("no crashed node held a visible version newer than every offer; the check is vacuous")
	}
	t.Logf("%d keys held a newer visible version on a crashed node only", outvoted)
}

func TestRecoveredStateVersionsAreRealStamps(t *testing.T) {
	rep := mustCrash(t, core.Baseline)
	if rep.Recovered.Keys() == 0 {
		t.Fatal("nothing recovered")
	}
	for key, st := range rep.Recovered.Versions {
		if st.IsZero() {
			t.Fatalf("key %d recovered with zero stamp", key)
		}
		if st.Node() < 0 || st.Node() >= 3 {
			t.Fatalf("key %d recovered from impossible node %d", key, st.Node())
		}
	}
}

func TestMonotonicReportRates(t *testing.T) {
	var empty MonotonicReport
	if empty.ViolationRate() != 0 || !empty.Holds() {
		t.Fatal("empty report should hold trivially")
	}
	bad := MonotonicReport{ReadsChecked: 100, Violations: 10}
	if bad.Holds() {
		t.Fatal("10% violations should not hold")
	}
}

// TestPartialCrashMaskedByReplicas reproduces the paper's Section 1
// motivation: a single-node failure is masked by remote volatile replicas
// even under lazy persistency, while a full-cluster failure is not.
func TestPartialCrashMaskedByReplicas(t *testing.T) {
	cfg := crashConfig(core.Model{C: core.Linearizable, P: core.EventualP})
	part, err := CrashAndRecover(cfg, 1_500_000, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if part.AckedWrites == 0 {
		t.Fatal("no writes before the partial crash")
	}
	if part.LostAcked != 0 {
		t.Fatalf("single-node crash lost %d acknowledged writes despite live replicas",
			part.LostAcked)
	}

	full, err := CrashAndRecover(cfg, 1_500_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.LostAcked == 0 {
		t.Fatal("full-cluster crash should lose in-flight acknowledged writes under Eventual persistency")
	}
}

func TestPartialCrashMinorityUnderWeakModels(t *testing.T) {
	// Even <Eventual, Eventual> masks a minority failure: every write that
	// was acknowledged is visible in the coordinator's volatile store, and
	// with one of three nodes down, two volatile copies remain... unless
	// the acknowledged write only ever existed on the crashed node. Losing
	// the coordinator before lazy propagation CAN lose writes — assert the
	// loss is at most what the full crash loses.
	cfg := crashConfig(core.Model{C: core.Eventual, P: core.EventualP})
	part, err := CrashAndRecover(cfg, 1_500_000, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := CrashAndRecover(cfg, 1_500_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if part.LostAcked > full.LostAcked {
		t.Fatalf("partial crash (%d lost) cannot exceed full crash (%d lost)",
			part.LostAcked, full.LostAcked)
	}
}

// sansHost strips what two equal runs legitimately differ in: the host
// wall-clock time.
func sansHost(rep *CrashReport) CrashReport {
	cp := *rep
	res := *rep.Result
	res.WallTime = 0
	cp.Result = &res
	return cp
}

// TestPartialCrashAllNodesEqualsFullCrash: a full crash is a partial crash
// of every node — nil and the explicit all-nodes list give equal whole
// reports.
func TestPartialCrashAllNodesEqualsFullCrash(t *testing.T) {
	cfg := crashConfig(core.Model{C: core.Causal, P: core.EventualP})
	part, err := CrashAndRecover(cfg, 1_500_000, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := CrashAndRecover(cfg, 1_500_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.LostAcked == 0 {
		t.Fatal("the full crash lost nothing; the comparison is vacuous")
	}
	if a, b := sansHost(part), sansHost(full); !reflect.DeepEqual(a, b) {
		t.Fatalf("all-node crash %+v\nfull crash %+v", a, b)
	}
}

func TestCrashAndRecoverRejectsBadInputs(t *testing.T) {
	cfg := crashConfig(core.Baseline)
	for _, tc := range []struct {
		at    int64
		nodes []int
		want  string
	}{
		{1_000_000, []int{3}, "node 3 outside [0, 3)"},
		{1_000_000, []int{-1}, "node -1 outside [0, 3)"},
		{1_000_000, []int{0, 2, 0}, "node 0 listed twice"},
		{-5, nil, "crash time must be >= 0"},
	} {
		rep, err := CrashAndRecover(cfg, tc.at, tc.nodes)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("CrashAndRecover(at=%d, nodes=%v) = %v, %v; want error containing %q",
				tc.at, tc.nodes, rep, err, tc.want)
		}
	}
}
