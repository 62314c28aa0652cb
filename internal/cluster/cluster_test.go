package cluster

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/sim"
	"repro/internal/ycsb"
)

// smallParams shrinks the cluster so tests stay fast.
func smallParams() params.Params {
	p := params.Default()
	p.Servers = 3
	p.ClientsPerServer = 4
	p.Keys = 256
	return p
}

func smallConfig(m core.Model) Config {
	return Config{
		Model:     m,
		Workload:  ycsb.WorkloadA,
		Params:    smallParams(),
		Seed:      42,
		WarmupNs:  200_000,
		MeasureNs: 800_000,
	}
}

func TestRunProducesThroughput(t *testing.T) {
	res, err := Run(smallConfig(core.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Ops == 0 {
		t.Fatal("no operations completed")
	}
	if res.Summary.Throughput <= 0 {
		t.Fatalf("throughput = %g", res.Summary.Throughput)
	}
	if res.Summary.MeanRead <= 0 || res.Summary.MeanWrite <= 0 {
		t.Fatalf("latencies missing: rd=%g wr=%g", res.Summary.MeanRead, res.Summary.MeanWrite)
	}
	if res.NetMessages == 0 || res.NetBytes == 0 {
		t.Fatal("no network traffic recorded")
	}
	if res.Protocol.Persists == 0 {
		t.Fatal("no persists under Synchronous persistency")
	}
}

func TestAllModelsRunToCompletion(t *testing.T) {
	for _, m := range core.AllModels() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			cfg := smallConfig(m)
			cfg.WarmupNs = 100_000
			cfg.MeasureNs = 400_000
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Ops == 0 {
				t.Fatalf("%s: no completed operations", m)
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := smallConfig(core.Model{C: core.Causal, P: core.Synchronous})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Ops != b.Summary.Ops || a.Events != b.Events ||
		a.Summary.MeanRead != b.Summary.MeanRead {
		t.Fatalf("same seed, different results: %+v vs %+v", a.Summary, b.Summary)
	}
}

func TestSeedChangesRun(t *testing.T) {
	cfg := smallConfig(core.Baseline)
	a, _ := Run(cfg)
	cfg.Seed = 43
	b, _ := Run(cfg)
	if a.Summary.Ops == b.Summary.Ops && a.Events == b.Events {
		t.Fatal("different seeds produced identical runs (suspicious)")
	}
}

func TestRelaxedModelsOutperformStrict(t *testing.T) {
	strict, err := Run(smallConfig(core.Baseline))
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := Run(smallConfig(core.Model{C: core.Eventual, P: core.EventualP}))
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Throughput() <= strict.Throughput() {
		t.Fatalf("<Eventual,Eventual> (%.2g) should beat <Lin,Sync> (%.2g)",
			relaxed.Throughput(), strict.Throughput())
	}
}

func TestTransactionalRunCommitsAndMayConflict(t *testing.T) {
	cfg := smallConfig(core.Model{C: core.Transactional, P: core.Synchronous})
	cfg.MeasureNs = 1_500_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol.TxnCommitted == 0 {
		t.Fatal("no transactions committed")
	}
	if res.Summary.Ops == 0 {
		t.Fatal("no ops recorded")
	}
}

func TestScopeModelRunsBarriers(t *testing.T) {
	cfg := smallConfig(core.Model{C: core.Linearizable, P: core.Scope})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol.ScopePersists == 0 {
		t.Fatal("no scope barriers executed")
	}
}

func TestTrackHistoryRecordsLogs(t *testing.T) {
	cfg := smallConfig(core.Baseline)
	cfg.TrackHistory = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Writes) == 0 || len(res.Reads) == 0 {
		t.Fatalf("history not tracked: %d writes, %d reads", len(res.Writes), len(res.Reads))
	}
	for _, w := range res.Writes {
		if w.Stamp.IsZero() {
			t.Fatal("acknowledged write with zero stamp")
		}
		if !w.ScopePersisted {
			t.Fatal("non-scope run should mark writes ScopePersisted")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallConfig(core.Baseline)
	cfg.Engine = "bogus"
	if _, err := Run(cfg); err == nil {
		t.Fatal("bogus engine accepted")
	}
	cfg = smallConfig(core.Baseline)
	cfg.Params.Servers = -1
	if _, err := Run(cfg); err == nil {
		t.Fatal("bad params accepted")
	}
	// The network's node limit (an arrival key holds 15 source bits)
	// surfaces through the composed Validate, at the bound and not before.
	cfg = smallConfig(core.Baseline)
	cfg.Params.Servers = sim.MaxArrivalSources
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%d servers rejected: %v", cfg.Params.Servers, err)
	}
	cfg.Params.Servers++
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "simnet: Nodes") {
		t.Fatalf("%d servers: got %v, want the simnet Nodes error", cfg.Params.Servers, err)
	}
	// The composed device configuration fails the same way, from New and
	// not as a panic inside it.
	for _, tc := range []struct {
		field string
		edit  func(*params.Params)
	}{
		{"ReadLat", func(p *params.Params) { p.NVMReadLat = 0 }},
		{"WriteLat", func(p *params.Params) { p.NVMWriteLat = -1 }},
	} {
		cfg = smallConfig(core.Baseline)
		tc.edit(&cfg.Params)
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "nvm: "+tc.field+" must") {
			t.Fatalf("got %v, want the nvm %s error", err, tc.field)
		}
	}
	// A Model outside the 5x5 matrix fails Validate and New with an error
	// naming it; it never runs as some other cell.
	for _, m := range []core.Model{{C: 7}, {P: -1}, {C: 1000, P: 1000}} {
		cfg = smallConfig(m)
		want := "cluster: Model " + m.String() + " is not one of the 25 DDP models"
		if err := cfg.Validate(); err == nil || err.Error() != want {
			t.Fatalf("Validate(%v): got %v, want %q", m, err, want)
		}
		if c, err := New(cfg); err == nil || c != nil || err.Error() != want {
			t.Fatalf("New(%v): got %v, %v, want %q", m, c, err, want)
		}
	}
}

// TestConfigValidateRunWindowAndWorkload: a negative run window, a malformed
// workload mix and a negative worker count fail Validate with the offending
// field's error instead of running (WarmupNs: -1, ReadRatio: 2 and
// IntraParallel: -5 used to run).
func TestConfigValidateRunWindowAndWorkload(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"WarmupNs", func(c *Config) { c.WarmupNs = -1 }},
		{"MeasureNs", func(c *Config) { c.MeasureNs = -1 }},
		{"ReadRatio", func(c *Config) { c.Workload.ReadRatio = 2 }},
		{"ScanRatio+RMWRatio", func(c *Config) { c.Workload.ScanRatio, c.Workload.RMWRatio = 0.5, 0.75 }},
		{"IntraParallel", func(c *Config) { c.IntraParallel = -5 }},
	} {
		t.Run(tc.field, func(t *testing.T) {
			cfg := smallConfig(core.Baseline)
			tc.edit(&cfg)
			if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.field+" must") {
				t.Fatalf("got %v, want the %s error", err, tc.field)
			}
		})
	}
}

// TestHybridGroupsOnlyLinearizableOrReadEnforced pins Validate's hybrid-group
// rule for all 25 bindings: consistency groups run under Linearizable or
// Read-Enforced consistency only, so every Transactional, Causal and
// Eventual binding is refused with its consistency model named.
func TestHybridGroupsOnlyLinearizableOrReadEnforced(t *testing.T) {
	for _, m := range core.AllModels() {
		cfg := smallConfig(m)
		cfg.Params.Servers, cfg.Params.Groups = 4, 2
		err := cfg.Validate()
		if ok := m.C == core.Linearizable || m.C == core.ReadEnforcedC; ok != (err == nil) {
			t.Errorf("%s in two groups: Validate = %v, want accepted %v", m, err, ok)
		}
		if err != nil && !strings.Contains(err.Error(), "hybrid groups support Linearizable or Read-Enforced consistency, not "+m.C.String()) {
			t.Errorf("%s in two groups: error %q does not name the consistency model", m, err)
		}
	}
}

func TestWorkloadMixAffectsCounts(t *testing.T) {
	cfg := smallConfig(core.Model{C: core.Causal, P: core.EventualP})
	cfg.Workload = ycsb.WorkloadB
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReadHist.Count() <= res.WriteHist.Count() {
		t.Fatalf("workload-B should be read-dominated: %d reads vs %d writes",
			res.ReadHist.Count(), res.WriteHist.Count())
	}
}
