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
	if _, err := ParseModel("bogus"); err == nil {
		t.Fatal("bogus model accepted")
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

func TestRegisterModelRunsLikeItsImpl(t *testing.T) {
	m, err := RegisterModel("test-causal-lazy", Causal, EventualPersistency)
	if err != nil {
		t.Fatal(err)
	}
	if m.String() != "test-causal-lazy" {
		t.Fatalf("custom model renders %q", m)
	}
	custom, err := Run(quickConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Run(quickConfig(Model{Consistency: Causal, Persistency: EventualPersistency}))
	if err != nil {
		t.Fatal(err)
	}
	if custom.Ops != canon.Ops || custom.MeanReadNs != canon.MeanReadNs ||
		custom.MeanWriteNs != canon.MeanWriteNs || custom.Persists != canon.Persists {
		t.Fatalf("custom binding diverged from its implementation pair:\ncustom: %+v\ncanon:  %+v", custom, canon)
	}
	found := false
	for _, rm := range RegisteredModels() {
		if rm == m {
			found = true
		}
	}
	if !found {
		t.Fatal("RegisteredModels is missing the custom binding")
	}
	parsed, err := ParseModel("test-causal-lazy")
	if err != nil || parsed != m {
		t.Fatalf("ParseModel(custom name) = %v, %v", parsed, err)
	}
}

func TestRegisterModelTransactionalAndScoped(t *testing.T) {
	// Transactional consistency and Scope persistency exercise the client's
	// registry-resolved behavior switches (transaction grouping, scope
	// barriers), not just the protocol layer.
	m, err := RegisterModel("test-txn-scoped", Transactional, Scope)
	if err != nil {
		t.Fatal(err)
	}
	custom, err := Run(quickConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Run(quickConfig(Model{Consistency: Transactional, Persistency: Scope}))
	if err != nil {
		t.Fatal(err)
	}
	if custom.Ops != canon.Ops || custom.Persists != canon.Persists {
		t.Fatalf("custom <Transactional, Scope> diverged:\ncustom: %+v\ncanon:  %+v", custom, canon)
	}
	if custom.Ops == 0 {
		t.Fatal("no operations completed")
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
