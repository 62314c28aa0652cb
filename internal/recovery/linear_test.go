package recovery

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/protocol"
)

// trackedRun executes a run with history tracking from t=0.
func trackedRun(t *testing.T, m core.Model) *cluster.Result {
	t.Helper()
	cfg := crashConfig(m)
	cfg.TrackHistory = true
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c.RunTo(1_500_000)
}

func TestLinearizableHistoriesPass(t *testing.T) {
	for _, m := range []core.Model{
		{C: core.Linearizable, P: core.Strict},
		{C: core.Linearizable, P: core.Synchronous},
		{C: core.Linearizable, P: core.Scope},
		{C: core.Linearizable, P: core.EventualP},
	} {
		res := trackedRun(t, m)
		rep := CheckLinearizable(res)
		if rep.WritesChecked == 0 || rep.ReadsChecked == 0 {
			t.Fatalf("%s: empty history", m)
		}
		if !rep.Linearizable() {
			t.Errorf("%s: history not linearizable: %s", m, rep)
		}
	}
}

func TestWeakHistoriesFailStaleness(t *testing.T) {
	for _, m := range []core.Model{
		{C: core.Causal, P: core.EventualP},
		{C: core.Eventual, P: core.EventualP},
		{C: core.Eventual, P: core.Synchronous},
	} {
		res := trackedRun(t, m)
		rep := CheckLinearizable(res)
		if rep.StaleReadViolations == 0 {
			t.Errorf("%s: expected stale-read violations, got %s", m, rep)
		}
		// Stamp order still refines real time (Lamport clocks): writes
		// acknowledged locally can still violate... they must not, because
		// a later write anywhere observes a larger Lamport time only if it
		// started after the first completed at the same node; cross-node
		// non-overlapping writes are ordered by the messages they exchange.
		// Weak models exchange no messages before acking, so cross-node
		// stamp inversions ARE possible; only assert reads were checked.
		if rep.ReadsChecked == 0 {
			t.Errorf("%s: no reads checked", m)
		}
	}
}

func TestReadEnforcedConsistencySlightlyWeaker(t *testing.T) {
	// The paper introduces Read-Enforced consistency as "slightly weaker
	// than Linearizable": a write completes before its INVs land, so a
	// read elsewhere in that sub-microsecond window can still return the
	// previous version. The checker must find a small but nonzero stale
	// rate — far below a truly weak model's.
	re := CheckLinearizable(trackedRun(t, core.Model{C: core.ReadEnforcedC, P: core.Synchronous}))
	if re.StaleReadViolations == 0 {
		t.Fatalf("read-enforced should show its early-completion staleness window: %s", re)
	}
	reRate := float64(re.StaleReadViolations) / float64(re.ReadsChecked)
	if reRate > 0.05 {
		t.Fatalf("read-enforced stale rate %.3f too high for a nearly-linearizable model", reRate)
	}
	ev := CheckLinearizable(trackedRun(t, core.Model{C: core.Eventual, P: core.EventualP}))
	evRate := float64(ev.StaleReadViolations) / float64(ev.ReadsChecked)
	if evRate <= reRate {
		t.Fatalf("eventual staleness (%.3f) should dwarf read-enforced (%.3f)", evRate, reRate)
	}
}

func TestCheckLinearizableSyntheticViolations(t *testing.T) {
	mk := func() *cluster.Result { return &cluster.Result{} }

	// Write order inversion: w1 [0,10] stamp 5; w2 [20,30] stamp 4.
	res := mk()
	res.Writes = []cluster.WriteRecord{
		{Key: 1, Stamp: protocol.MakeStamp(5, 0), IssueAt: 0, AckAt: 10},
		{Key: 1, Stamp: protocol.MakeStamp(4, 1), IssueAt: 20, AckAt: 30},
	}
	if rep := CheckLinearizable(res); rep.WriteOrderViolations != 1 {
		t.Fatalf("expected 1 write-order violation: %s", rep)
	}

	// Stale read: w stamp 7 completes at 10; read [20,25] returns zero.
	res = mk()
	res.Writes = []cluster.WriteRecord{
		{Key: 1, Stamp: protocol.MakeStamp(7, 0), IssueAt: 0, AckAt: 10},
	}
	res.Reads = []cluster.ReadRecord{
		{Key: 1, Stamp: 0, IssueAt: 20, DoneAt: 25},
	}
	if rep := CheckLinearizable(res); rep.StaleReadViolations != 1 {
		t.Fatalf("expected 1 stale-read violation: %s", rep)
	}

	// Future read: read [0,5] returns a version whose write began at 50.
	res = mk()
	res.Writes = []cluster.WriteRecord{
		{Key: 1, Stamp: protocol.MakeStamp(9, 0), IssueAt: 50, AckAt: 60},
	}
	res.Reads = []cluster.ReadRecord{
		{Key: 1, Stamp: protocol.MakeStamp(9, 0), IssueAt: 0, DoneAt: 5},
	}
	if rep := CheckLinearizable(res); rep.FutureReadViolations != 1 {
		t.Fatalf("expected 1 future-read violation: %s", rep)
	}

	// A clean overlapping history passes.
	res = mk()
	res.Writes = []cluster.WriteRecord{
		{Key: 1, Stamp: protocol.MakeStamp(1, 0), IssueAt: 0, AckAt: 10},
		{Key: 1, Stamp: protocol.MakeStamp(2, 1), IssueAt: 5, AckAt: 15}, // overlaps w1
	}
	res.Reads = []cluster.ReadRecord{
		{Key: 1, Stamp: protocol.MakeStamp(2, 1), IssueAt: 16, DoneAt: 18},
	}
	if rep := CheckLinearizable(res); !rep.Linearizable() {
		t.Fatalf("clean history flagged: %s", rep)
	}
}
