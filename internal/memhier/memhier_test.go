package memhier

import (
	"testing"

	"repro/internal/params"
	"repro/internal/sim"
)

func newH() *Hierarchy { return New(params.Default(), sim.NewRNG(1)) }

func TestReadLatencyIsOneOfTheLevels(t *testing.T) {
	h := newH()
	p := params.Default()
	valid := map[int64]bool{p.L1Latency: true, p.L2Latency: true, p.LLCLatency: true, p.DRAMLatency: true}
	seen := map[int64]int{}
	for i := 0; i < 10000; i++ {
		l := h.ReadLatency()
		if !valid[l] {
			t.Fatalf("latency %d not a hierarchy level", l)
		}
		seen[l]++
	}
	if len(seen) < 3 {
		t.Fatalf("expected a mix of levels, got %v", seen)
	}
	// Most accesses should hit at or above the LLC (warmed working set).
	if seen[p.DRAMLatency] > 2000 {
		t.Fatalf("too many DRAM misses: %v", seen)
	}
}

func TestWriteLatencyIsLLC(t *testing.T) {
	h := newH()
	if got := h.WriteLatency(); got != params.Default().LLCLatency {
		t.Fatalf("write latency = %d, want LLC", got)
	}
}

func TestDDIOFillAccounting(t *testing.T) {
	h := newH()
	if got := h.DDIOFillLatency(); got != params.Default().LLCLatency {
		t.Fatalf("DDIO fill latency = %d, want LLC", got)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := New(params.Default(), sim.NewRNG(9))
	b := New(params.Default(), sim.NewRNG(9))
	for i := 0; i < 1000; i++ {
		if a.ReadLatency() != b.ReadLatency() {
			t.Fatal("hierarchy model not deterministic for equal seeds")
		}
	}
}
