package cluster

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ycsb"
)

// equivalentResults compares everything an LP run must reproduce
// byte-identically from the sequential run. Excluded by design: WallTime
// (host-dependent), LP (engine-specific), and the scheduler's internal
// wheel/overflow split and pending high-water mark (per-node windows bucket
// differently than one shared window; total Processed must still match and
// is compared via Events).
func equivalentResults(t *testing.T, label string, seq, lp *Result) {
	t.Helper()
	type comparable struct {
		Summary        interface{}
		ReadHist       interface{}
		WriteHist      interface{}
		Protocol       interface{}
		NVMMeanWaitNs  float64
		NVMMaxQueue    int
		NetMessages    uint64
		NetBytes       uint64
		WorkerMeanWait float64
		BufferPeak     int
		SimTimeNs      int64
		Events         uint64
		Routed         uint64
		ShardOps       interface{}
		NodeOps        interface{}
		Writes         interface{}
		Reads          interface{}
	}
	// Shard accounting exists only on sharded runs; the shards=0 vs shards=1
	// identity proof compares two topologies whose accounting shapes differ
	// by design (and asserts the routed side's shape itself), so ShardOps
	// and NodeOps are compared only between runs of the same shard count.
	cmpShards := seq.Config.Shards == lp.Config.Shards
	project := func(r *Result) comparable {
		c := comparable{
			Summary:        r.Summary,
			ReadHist:       r.ReadHist,
			WriteHist:      r.WriteHist,
			Protocol:       r.Protocol,
			NVMMeanWaitNs:  r.NVMMeanWaitNs,
			NVMMaxQueue:    r.NVMMaxQueue,
			NetMessages:    r.NetMessages,
			NetBytes:       r.NetBytes,
			WorkerMeanWait: r.WorkerMeanWait,
			BufferPeak:     r.BufferPeak,
			SimTimeNs:      r.SimTimeNs,
			Events:         r.Events,
			Routed:         r.Routed,
			ShardOps:       r.ShardOps,
			NodeOps:        r.NodeOps,
			Writes:         r.Writes,
			Reads:          r.Reads,
		}
		if !cmpShards {
			c.ShardOps, c.NodeOps = nil, nil
		}
		return c
	}
	s, l := project(seq), project(lp)
	if !reflect.DeepEqual(s, l) {
		sv, lv := reflect.ValueOf(s), reflect.ValueOf(l)
		for i := 0; i < sv.NumField(); i++ {
			if !reflect.DeepEqual(sv.Field(i).Interface(), lv.Field(i).Interface()) {
				t.Errorf("%s: field %s diverged:\n  seq: %+v\n  lp:  %+v",
					label, sv.Type().Field(i).Name, sv.Field(i).Interface(), lv.Field(i).Interface())
			}
		}
		t.Fatalf("%s: LP run diverged from sequential", label)
	}
}

// runPair runs cfg on the sequential engine and on the LP engine with the
// given worker count, asserting byte-identical results.
func runPair(t *testing.T, label string, cfg Config, workers int) {
	t.Helper()
	// The NIC fast path elides deliver events more often under the
	// sequential engine than under LP epochs (the clock may not jump past an
	// epoch barrier), so Events would legitimately differ. Disable it here —
	// TestNICFastPathDifferential proves on/off equivalence separately.
	cfg.noNICFastPath = true
	seqCfg := cfg
	seqCfg.IntraParallel = 1
	seq, err := Run(seqCfg)
	if err != nil {
		t.Fatalf("%s sequential: %v", label, err)
	}
	lpCfg := cfg
	lpCfg.IntraParallel = workers
	lp, err := Run(lpCfg)
	if err != nil {
		t.Fatalf("%s lp(%d): %v", label, workers, err)
	}
	if lp.LP.Workers < 1 || lp.LP.Epochs == 0 {
		t.Fatalf("%s: LP engine did not engage: %+v", label, lp.LP)
	}
	equivalentResults(t, label, seq, lp)
}

// TestLPMatchesSequentialDifferential is the tentpole's equivalence proof:
// over 25 randomized seeds — cycling through models that exercise every
// cross-node interaction class (strong broadcast+ACKs, causal reorder
// buffering, transactional 2PC, scope barriers, eventual lazy propagation)
// and perturbed cluster shapes — the LP engine must reproduce the
// sequential engine's results byte-for-byte. Run in CI under -race, which
// also proves the epoch barriers fully order all cross-LP state handoffs.
func TestLPMatchesSequentialDifferential(t *testing.T) {
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
	for seed := uint64(0); seed < 25; seed++ {
		m := models[seed%uint64(len(models))]
		cfg := smallConfig(m)
		cfg.Workload = workloads[seed%uint64(len(workloads))]
		cfg.Seed = 1000 + seed
		cfg.WarmupNs = 100_000
		cfg.MeasureNs = 300_000
		// Perturb the shape: vary servers (3-5), clients, and stress the
		// sender-local queue-pair model with a tiny QP budget on some
		// seeds. Jitter stays on (params.Default) — the jitter hash must
		// be interleaving-independent.
		cfg.Params.Servers = 3 + int(seed%3)
		cfg.Params.ClientsPerServer = 3 + int(seed%2)
		if seed%4 == 0 {
			cfg.Params.QueuePairs = 2
		}
		cfg.TrackHistory = seed%3 == 0
		workers := 2 + int(seed%3) // 2..4
		label := fmt.Sprintf("seed=%d %s %s s=%d w=%d",
			cfg.Seed, m, cfg.Workload.Name, cfg.Params.Servers, workers)
		runPair(t, label, cfg, workers)
	}
}

// TestLPWorkerCountInvariance asserts workers=1 and workers=N LP runs are
// identical to each other and to sequential — the scheduler's partition of
// LPs onto workers must be unobservable.
func TestLPWorkerCountInvariance(t *testing.T) {
	cfg := smallConfig(core.Model{C: core.Linearizable, P: core.Synchronous})
	cfg.Params.Servers = 5
	cfg.TrackHistory = true
	cfg.noNICFastPath = true // Events comparability; see runPair
	seqCfg := cfg
	seqCfg.IntraParallel = 1
	seq, err := Run(seqCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 5, 8} {
		lpCfg := cfg
		lpCfg.IntraParallel = w
		lp, err := Run(lpCfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		equivalentResults(t, fmt.Sprintf("workers=%d", w), seq, lp)
	}
}

// TestLPFallsBackWhenUnusable asserts the documented sequential fallbacks:
// tracing and single-server clusters run the sequential engine even when
// IntraParallel asks for LPs.
func TestLPFallsBackWhenUnusable(t *testing.T) {
	cfg := smallConfig(core.Baseline)
	cfg.IntraParallel = 4
	cfg.TraceProtocol = true
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Eng == nil || c.lps != nil {
		t.Fatal("TraceProtocol run must use the sequential engine")
	}
	c.Close()

	cfg = smallConfig(core.Baseline)
	cfg.IntraParallel = 4
	cfg.Params.Servers = 1
	cfg.Params.Groups = 1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.LP.Workers != 0 {
		t.Fatalf("single-server run engaged LPs: %+v", res.LP)
	}
}

// TestLPRejectsZeroLookahead asserts cluster surfaces the simnet validation
// error when LPs are requested on a fabric with no cross-node latency.
func TestLPRejectsZeroLookahead(t *testing.T) {
	cfg := smallConfig(core.Baseline)
	cfg.IntraParallel = 2
	cfg.Params.NetRoundTrip = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("expected an error for IntraParallel on a zero-latency fabric")
	}
}
