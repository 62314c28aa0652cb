package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ycsb"
)

// equivalentModuloEvents compares every simulated outcome between a fast-path
// and a no-fast-path run. Events is excluded by design — eliding deliver
// events is the whole point — along with the host/engine-dependent fields
// equivalentResults already excludes (WallTime, LP, Sched internals) and the
// fast-path hit counter itself.
func equivalentModuloEvents(t *testing.T, label string, slow, fast *Result) {
	t.Helper()
	type comparable struct {
		Summary        interface{}
		ReadHist       interface{}
		WriteHist      interface{}
		ScopeHist      interface{}
		Protocol       interface{}
		NVMMeanWaitNs  float64
		NVMMaxQueue    int
		NetMessages    uint64
		NetBytes       uint64
		WorkerMeanWait float64
		BufferPeak     int
		SimTimeNs      int64
		Writes         interface{}
		Reads          interface{}
	}
	project := func(r *Result) comparable {
		return comparable{
			Summary:        r.Summary,
			ReadHist:       r.ReadHist,
			WriteHist:      r.WriteHist,
			ScopeHist:      r.ScopeHist,
			Protocol:       r.Protocol,
			NVMMeanWaitNs:  r.NVMMeanWaitNs,
			NVMMaxQueue:    r.NVMMaxQueue,
			NetMessages:    r.NetMessages,
			NetBytes:       r.NetBytes,
			WorkerMeanWait: r.WorkerMeanWait,
			BufferPeak:     r.BufferPeak,
			SimTimeNs:      r.SimTimeNs,
			Writes:         r.Writes,
			Reads:          r.Reads,
		}
	}
	s, f := project(slow), project(fast)
	if !reflect.DeepEqual(s, f) {
		sv, fv := reflect.ValueOf(s), reflect.ValueOf(f)
		for i := 0; i < sv.NumField(); i++ {
			if !reflect.DeepEqual(sv.Field(i).Interface(), fv.Field(i).Interface()) {
				t.Errorf("%s: field %s diverged:\n  slow: %+v\n  fast: %+v",
					label, sv.Type().Field(i).Name, sv.Field(i).Interface(), fv.Field(i).Interface())
			}
		}
		t.Fatalf("%s: fast-path run diverged from baseline", label)
	}
}

// TestNICFastPathDifferential is the fast path's cluster-level equivalence
// proof: over 25 randomized seeds — cycling models spanning every protocol
// interaction class, workloads, cluster shapes, and both the sequential and
// LP engines — a run with the delivery fast path must reproduce the baseline
// run byte-for-byte in every simulated outcome, while dispatching strictly
// fewer events whenever the path engages. Run in CI under -race alongside the
// LP differential.
func TestNICFastPathDifferential(t *testing.T) {
	models := []core.Model{
		{C: core.Linearizable, P: core.Synchronous},
		{C: core.Causal, P: core.Synchronous},
		{C: core.Transactional, P: core.Scope},
		{C: core.Eventual, P: core.EventualP},
		{C: core.ReadEnforcedC, P: core.ReadEnforcedP},
		{C: core.Causal, P: core.EventualP},
		{C: core.Linearizable, P: core.Strict},
		{C: core.Transactional, P: core.Synchronous},
		{C: core.Eventual, P: core.Scope},
		{C: core.ReadEnforcedC, P: core.Strict},
	}
	workloads := []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadB, ycsb.WorkloadW}
	engaged := uint64(0)
	for seed := uint64(0); seed < 25; seed++ {
		m := models[seed%uint64(len(models))]
		cfg := smallConfig(m)
		cfg.Workload = workloads[seed%uint64(len(workloads))]
		cfg.Seed = 7000 + seed
		cfg.WarmupNs = 100_000
		cfg.MeasureNs = 300_000
		cfg.Params.Servers = 3 + int(seed%3)
		cfg.Params.ClientsPerServer = 3 + int(seed%2)
		if seed%4 == 0 {
			cfg.Params.QueuePairs = 2
		}
		cfg.TrackHistory = seed%3 == 0
		// Odd seeds exercise the LP engine: epoch barriers bound TryAdvance
		// differently than a full-window Run, so both dispatch regimes must
		// hold the equivalence.
		if seed%2 == 1 {
			cfg.IntraParallel = 2 + int(seed%3)
		}
		label := fmt.Sprintf("seed=%d %s %s s=%d lps=%d",
			cfg.Seed, m, cfg.Workload.Name, cfg.Params.Servers, cfg.IntraParallel)

		slowCfg := cfg
		slowCfg.noNICFastPath = true
		slow, err := Run(slowCfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", label, err)
		}
		fast, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s fast: %v", label, err)
		}
		if slow.NetFastHops != 0 {
			t.Fatalf("%s: disabled run counted %d fast deliveries", label, slow.NetFastHops)
		}
		if fast.Events+fast.NetFastHops != slow.Events {
			t.Fatalf("%s: elision ledger broken: %d events + %d fast hops != %d events without the fast path",
				label, fast.Events, fast.NetFastHops, slow.Events)
		}
		engaged += fast.NetFastHops
		equivalentModuloEvents(t, label, slow, fast)
	}
	if engaged == 0 {
		t.Fatal("fast path never engaged across the differential matrix")
	}
}

// TestNICFastPathEventReduction pins the performance claim on an uncontended
// figure-6-style cell — the strong corner model at light load, where receive
// queues are mostly idle: the fast path must elide at least 20% of all engine
// dispatches. (Under sequential wiring TryAdvance proves a global gap over
// the one shared engine, so heavier cells legitimately see a lower hit rate;
// the paper-scale figures run light per-node load.) Deterministic: the seed
// fixes the exact event counts.
func TestNICFastPathEventReduction(t *testing.T) {
	cfg := smallConfig(core.Model{C: core.Linearizable, P: core.Synchronous})
	cfg.Params.Servers = 3
	cfg.Params.ClientsPerServer = 1
	cfg.WarmupNs = 200_000
	cfg.MeasureNs = 2_000_000

	slowCfg := cfg
	slowCfg.noNICFastPath = true
	slow, err := Run(slowCfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	equivalentModuloEvents(t, "fig6-cell", slow, fast)
	reduction := 1 - float64(fast.Events)/float64(slow.Events)
	t.Logf("events %d -> %d (%.1f%% reduction, %d fast deliveries)",
		slow.Events, fast.Events, 100*reduction, fast.NetFastHops)
	if reduction < 0.20 {
		t.Fatalf("event reduction %.1f%% below the 20%% bar (%d -> %d)",
			100*reduction, slow.Events, fast.Events)
	}
}
