package recovery

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
)

func TestNeedsVotingClassification(t *testing.T) {
	cases := map[core.Model]bool{
		{C: core.Linearizable, P: core.Strict}:        false,
		{C: core.Eventual, P: core.Strict}:            false,
		{C: core.Linearizable, P: core.Synchronous}:   false,
		{C: core.Transactional, P: core.Synchronous}:  false,
		{C: core.ReadEnforcedC, P: core.Synchronous}:  true,
		{C: core.Causal, P: core.Synchronous}:         true,
		{C: core.Linearizable, P: core.ReadEnforcedP}: true,
		{C: core.Linearizable, P: core.Scope}:         true,
		{C: core.Eventual, P: core.EventualP}:         true,
	}
	for m, want := range cases {
		if got := TimeRecovery(m, params.Default(), 1).NeedsVoting; got != want {
			t.Errorf("NeedsVoting(%s) = %v, want %v", m, got, want)
		}
	}
}

func TestTimeRecoveryStrictFasterThanWeak(t *testing.T) {
	p := params.Default()
	strict := TimeRecovery(core.Baseline, p, 100000)
	weak := TimeRecovery(core.Model{C: core.Eventual, P: core.EventualP}, p, 100000)
	if strict.VotingNs != 0 || strict.NeedsVoting {
		t.Fatalf("strict recovery should skip voting: %+v", strict)
	}
	if weak.VotingNs == 0 || !weak.NeedsVoting {
		t.Fatalf("weak recovery should vote: %+v", weak)
	}
	if weak.TotalNs <= strict.TotalNs {
		t.Fatalf("weak recovery (%d) should be slower than strict (%d)",
			weak.TotalNs, strict.TotalNs)
	}
	if strict.LocalScanNs != weak.LocalScanNs {
		t.Fatal("scan time should not depend on the model")
	}
}

func TestTimeRecoveryScalesWithKeys(t *testing.T) {
	p := params.Default()
	small := TimeRecovery(core.Baseline, p, 1000)
	large := TimeRecovery(core.Baseline, p, 1000000)
	if large.TotalNs <= small.TotalNs {
		t.Fatal("recovery time should scale with image size")
	}
}

func TestImageDivergenceAndTimedRecovery(t *testing.T) {
	rep, err := CrashAndRecover(crashConfig(core.Model{C: core.Eventual, P: core.EventualP}), 1_500_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	timing := rep.Timing
	if timing.TotalNs <= 0 {
		t.Fatalf("non-positive recovery time: %+v", timing)
	}
	if !timing.NeedsVoting {
		t.Fatal("eventual model should need voting recovery")
	}
	// Lazy persists under load: some keys should have divergent images.
	if rep.DivergentKeys == 0 {
		t.Fatal("expected divergent NVM images under eventual persistency")
	}

	// Strict images must never diverge... beyond what monotonic persisted
	// stamps allow; check the strict model separately.
	strict, err := CrashAndRecover(crashConfig(core.Model{C: core.Linearizable, P: core.Strict}), 1_500_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	// In-flight writes may leave small divergence even under Strict; it
	// must be far below the eventual model's.
	if dS, dE := strict.DivergentKeys, rep.DivergentKeys; dS >= dE {
		t.Fatalf("strict divergence (%d) should be below eventual (%d)", dS, dE)
	}
}
