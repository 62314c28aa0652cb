package ddp

import (
	"strings"
	"testing"
)

func quickConfig(m Model) Config {
	p := DefaultParams()
	p.Servers = 3
	p.ClientsPerServer = 4
	p.Keys = 256
	return Config{
		Model:     m,
		Workload:  WorkloadA,
		Params:    p,
		Seed:      9,
		WarmupNs:  200_000,
		MeasureNs: 800_000,
	}
}

func TestRunBasic(t *testing.T) {
	res, err := Run(quickConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 || res.ThroughputOps <= 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Model != Baseline || res.Workload != "workload-A" {
		t.Fatalf("identification wrong: %+v", res)
	}
	if !strings.Contains(res.String(), "Mops/s") {
		t.Fatalf("result string = %q", res.String())
	}
}

func TestAllModelsEnumerates25(t *testing.T) {
	all := AllModels()
	if len(all) != 25 {
		t.Fatalf("AllModels = %d", len(all))
	}
}

func TestParseModelFacade(t *testing.T) {
	m, err := ParseModel("causal,sync")
	if err != nil {
		t.Fatal(err)
	}
	if m.Consistency != Causal || m.Persistency != Synchronous {
		t.Fatalf("parse wrong: %+v", m)
	}
	for _, bad := range []string{"bogus", "strong-local"} {
		if _, err := ParseModel(bad); err == nil {
			t.Fatalf("model %q accepted", bad)
		}
	}
	if m.String() != "<Causal, Synchronous>" {
		t.Fatalf("string = %q", m.String())
	}
}

func TestTraitsFacade(t *testing.T) {
	rows := Table4()
	if len(rows) != 10 {
		t.Fatalf("table4 = %d rows", len(rows))
	}
	tr, ok := TraitsOf(Baseline)
	if !ok || tr.Durability != High {
		t.Fatalf("baseline traits wrong: %+v ok=%v", tr, ok)
	}
	// Unrated model still gets a derived durability.
	tr, ok = TraitsOf(Model{Consistency: EventualConsistency, Persistency: Strict})
	if ok || tr.Durability != High {
		t.Fatalf("derived traits wrong: %+v ok=%v", tr, ok)
	}
	if Durability(Model{Consistency: Causal, Persistency: EventualPersistency}) != Low {
		t.Fatal("derived durability wrong")
	}
}

func TestVisibilityAndDurabilityPoints(t *testing.T) {
	if !strings.Contains(VisibilityPoint(Linearizable), "when the update takes place") {
		t.Fatal("VP description wrong")
	}
	if !strings.Contains(DurabilityPoint(Scope), "scope end") {
		t.Fatal("DP description wrong")
	}
}

func TestRunWithCrashFacade(t *testing.T) {
	rep, err := RunWithCrash(quickConfig(Baseline), 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckedWrites == 0 {
		t.Fatal("no writes acknowledged before crash")
	}
	if rep.LostWrites != 0 || !rep.NonStaleReads {
		t.Fatalf("baseline should lose nothing: %+v", rep)
	}
	if rep.LossRate() != 0 {
		t.Fatalf("loss rate = %g", rep.LossRate())
	}
	relaxed, err := RunWithCrash(
		quickConfig(Model{Consistency: EventualConsistency, Persistency: EventualPersistency}),
		600_000)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.LostConfirmedDurable != 0 {
		t.Fatalf("confirmed-durable writes lost: %d", relaxed.LostConfirmedDurable)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	cfg := quickConfig(Baseline)
	cfg.Engine = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus engine accepted")
	}
	// A Model outside the 5x5 matrix is an error naming it, not a run of
	// some other cell.
	for _, m := range []Model{{Consistency: 7}, {Persistency: -1}, {Consistency: 1000, Persistency: 1000}} {
		res, err := Run(quickConfig(m))
		if err == nil || res != nil || !strings.Contains(err.Error(), m.String()+" is not one of the 25 DDP models") {
			t.Fatalf("Run(%v) = %v, %v; want the out-of-matrix error", m, res, err)
		}
	}
}

func TestDeterminismThroughFacade(t *testing.T) {
	a, err := Run(quickConfig(Model{Consistency: Causal, Persistency: Synchronous}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickConfig(Model{Consistency: Causal, Persistency: Synchronous}))
	if err != nil {
		t.Fatal(err)
	}
	if a.Ops != b.Ops || a.MeanReadNs != b.MeanReadNs {
		t.Fatal("facade runs not deterministic")
	}
}

func TestRunWithPartialCrashFacade(t *testing.T) {
	cfg := quickConfig(Model{Consistency: Linearizable, Persistency: EventualPersistency})
	rep, err := RunWithPartialCrash(cfg, 600_000, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckedWrites == 0 {
		t.Fatal("no writes acknowledged")
	}
	if rep.LostWrites != 0 {
		t.Fatalf("single-node crash lost %d writes despite replicas", rep.LostWrites)
	}
}

func TestVerifyFacade(t *testing.T) {
	rep, err := Verify(quickConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Linearizable {
		t.Fatalf("linearizable run failed verification: %+v", rep)
	}
	weak, err := Verify(quickConfig(Model{Consistency: EventualConsistency, Persistency: EventualPersistency}))
	if err != nil {
		t.Fatal(err)
	}
	if weak.StaleReads == 0 {
		t.Fatal("eventual run showed no stale reads")
	}
}

// TestVerifyZeroWindowsTakeConfigDefaults checks that Verify reads its run
// length from the built cluster: zero windows mean Config's documented
// 1 ms warm-up + 5 ms measurement, the same history as explicit windows.
func TestVerifyZeroWindowsTakeConfigDefaults(t *testing.T) {
	explicit := quickConfig(Baseline)
	explicit.WarmupNs, explicit.MeasureNs = 1_000_000, 5_000_000
	want, err := Verify(explicit)
	if err != nil {
		t.Fatal(err)
	}
	zero := explicit
	zero.WarmupNs, zero.MeasureNs = 0, 0
	got, err := Verify(zero)
	if err != nil {
		t.Fatal(err)
	}
	if got.WritesChecked != want.WritesChecked || got.ReadsChecked != want.ReadsChecked {
		t.Fatalf("zero windows checked %d writes / %d reads, explicit 1 ms + 5 ms checked %d / %d",
			got.WritesChecked, got.ReadsChecked, want.WritesChecked, want.ReadsChecked)
	}
	if want.WritesChecked == 0 || want.ReadsChecked == 0 {
		t.Fatalf("empty history: %+v", want)
	}
}

// TestTransactionalScopeRun runs <Transactional, Scope> through the public
// API: the client's behaviour switches (transaction grouping, scope
// barriers) read the model directly, not just the protocol layer.
func TestTransactionalScopeRun(t *testing.T) {
	res, err := Run(quickConfig(Model{Consistency: Transactional, Persistency: Scope}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Persists == 0 {
		t.Fatal("no persists under Scope persistency")
	}
}

// TestPartialCrashOfEveryNodeIsRunWithCrash: a full crash is a partial crash
// of every node — nil, the explicit all-nodes list and RunWithCrash give one
// report, Table 4's monotonic verdict (live and across the crash) included.
func TestPartialCrashOfEveryNodeIsRunWithCrash(t *testing.T) {
	cfg := quickConfig(Model{Consistency: Causal, Persistency: EventualPersistency})
	full, err := RunWithCrash(cfg, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, nodes := range [][]int{nil, {0, 1, 2}, {2, 0, 1}} {
		part, err := RunWithPartialCrash(cfg, 600_000, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if *part != *full {
			t.Fatalf("partial crash of %v: %+v\nfull crash: %+v", nodes, part, full)
		}
	}
	if full.LostWrites == 0 || full.MonotonicReads {
		t.Fatalf("<Causal, Eventual> full crash should lose writes and fail monotonic reads: %+v", full)
	}
}

func TestCrashRejectsBadInputs(t *testing.T) {
	cfg := quickConfig(Baseline)
	cfg.Params.Servers = 5
	for _, tc := range []struct {
		at    int64
		nodes []int
		want  string
	}{
		{600_000, []int{9}, "node 9 outside [0, 5)"},
		{600_000, []int{1, 1}, "node 1 listed twice"},
		{-5, nil, "crash time must be >= 0"},
		{-5, []int{0}, "crash time must be >= 0"},
	} {
		rep, err := RunWithPartialCrash(cfg, tc.at, tc.nodes)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("RunWithPartialCrash(at=%d, nodes=%v) = %+v, %v; want error containing %q",
				tc.at, tc.nodes, rep, err, tc.want)
		}
	}
	if rep, err := RunWithCrash(cfg, -5); err == nil {
		t.Errorf("RunWithCrash(-5) = %+v, nil; want an error", rep)
	}
}
