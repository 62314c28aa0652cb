package cluster

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ycsb"
)

func openConfig(m core.Model, rate float64) Config {
	cfg := smallConfig(m)
	cfg.Arrivals = &ycsb.ArrivalSpec{Shape: ycsb.ShapePoisson, RatePerSec: rate}
	return cfg
}

// TestOpenLoopSmoke: at light load the open loop keeps up — achieved ops
// track offered arrivals — and the accounting fields populate.
func TestOpenLoopSmoke(t *testing.T) {
	cfg := openConfig(core.Model{C: core.Linearizable, P: core.Synchronous}, 2e6)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 || res.Summary.Ops == 0 {
		t.Fatalf("no load ran: offered=%d ops=%d", res.Offered, res.Summary.Ops)
	}
	if res.InflightPeak < 1 {
		t.Fatal("inflight peak never rose above zero")
	}
	// 2e6/s over 800us ≈ 1600 arrivals; Poisson noise stays well inside 2x.
	want := cfg.Arrivals.RatePerSec * float64(cfg.MeasureNs) / 1e9
	if f := float64(res.Offered); f < 0.5*want || f > 2*want {
		t.Fatalf("offered %d arrivals, want ~%.0f", res.Offered, want)
	}
	if float64(res.Completed) < 0.9*float64(res.Offered) {
		t.Fatalf("light load fell behind: offered %d, completed %d", res.Offered, res.Completed)
	}
}

// TestOpenLoopRejectsClosedLoopModels: transactions and scope barriers are
// closed-loop session state; the open loop must refuse them loudly.
func TestOpenLoopRejectsClosedLoopModels(t *testing.T) {
	for _, m := range []core.Model{
		{C: core.Transactional, P: core.Synchronous},
		{C: core.Linearizable, P: core.Scope},
	} {
		if _, err := New(openConfig(m, 1e6)); err == nil {
			t.Fatalf("open loop accepted %s", m)
		}
	}
	bad := openConfig(core.Baseline, 0) // zero rate
	if _, err := New(bad); err == nil {
		t.Fatal("open loop accepted a zero arrival rate")
	}
}

// TestOpenLoopHotKeysWithinKeyspace: a hot-key storm draws its keys from the
// HotKeys hottest ranks of the keyspace, so it cannot name more ranks than
// there are keys. Validate must refuse such a storm with a per-field error
// instead of the run panicking at the first storm draw past the keyspace,
// and a storm over the whole keyspace still runs.
func TestOpenLoopHotKeysWithinKeyspace(t *testing.T) {
	cfg := openConfig(core.Model{C: core.Eventual, P: core.EventualP}, 3e6)
	cfg.Arrivals.Shape = ycsb.ShapeBursty
	cfg.Arrivals.HotFrac = 1
	cfg.Arrivals.HotKeys = 500
	cfg.Params.Keys = 100
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "HotKeys") {
		t.Fatalf("a 500-key storm over 100 keys: got error %v, want a HotKeys field error", err)
	}
	cfg.Arrivals.HotKeys = cfg.Params.Keys
	if _, err := Run(cfg); err != nil {
		t.Fatalf("a storm over the whole keyspace was rejected: %v", err)
	}
}

// TestOpenLoopDeterministicReplay: the same config replays byte-identically.
func TestOpenLoopDeterministicReplay(t *testing.T) {
	cfg := openConfig(core.Model{C: core.Causal, P: core.EventualP}, 3e6)
	cfg.Arrivals.Shape = ycsb.ShapeBursty
	cfg.Arrivals.HotFrac = 0.5
	cfg.Arrivals.HotKeys = 4
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary || a.Offered != b.Offered ||
		a.Completed != b.Completed || a.InflightPeak != b.InflightPeak {
		t.Fatalf("replay diverged:\n  a: %+v offered=%d\n  b: %+v offered=%d",
			a.Summary, a.Offered, b.Summary, b.Offered)
	}
}

// TestOpenLoopLPInvariance: the open-loop engine is all node-local state
// (per-node arrival streams, session pools, measurement sinks), so LP runs
// must reproduce sequential runs byte-for-byte, like the closed loop does.
func TestOpenLoopLPInvariance(t *testing.T) {
	for _, m := range []core.Model{
		{C: core.Linearizable, P: core.Strict},
		{C: core.Eventual, P: core.EventualP},
	} {
		cfg := openConfig(m, 4e6)
		cfg.Arrivals.Shape = ycsb.ShapeDiurnal
		cfg.Arrivals.Amplitude = 0.6
		cfg.Arrivals.PeriodNs = 200_000
		cfg.TrackHistory = true
		runPair(t, "open-loop "+m.String(), cfg, 3)
	}
}

// TestOpenLoopCoordinatedOmissionSafety drives a cell well past saturation
// and checks the two properties a closed loop cannot give: arrivals stay on
// the intended schedule (offered load is service-independent), and measured
// latency reflects the queueing delay from the intended arrival instant.
func TestOpenLoopCoordinatedOmissionSafety(t *testing.T) {
	cfg := openConfig(core.Model{C: core.Eventual, P: core.EventualP}, 1e6)
	cfg.Params.Servers = 1
	cfg.Params.WorkersPerServer = 1
	cfg.Params.RequestCompute = 100_000 // ~100us/op: capacity orders below 1e6/s
	cfg.WarmupNs = 200_000
	cfg.MeasureNs = 800_000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Arrivals.RatePerSec * float64(cfg.MeasureNs) / 1e9
	if f := float64(res.Offered); f < 0.8*want || f > 1.2*want {
		t.Fatalf("saturation bent the arrival schedule: offered %d, want ~%.0f", res.Offered, want)
	}
	if float64(res.Completed) > 0.5*float64(res.Offered) {
		t.Fatalf("cell did not saturate: offered %d, completed %d", res.Offered, res.Completed)
	}
	// Intended-time latency must show the backlog: by mid-window the queue is
	// hundreds of ops deep, so mean latency reaches a large fraction of the
	// window itself — impossible if latency were measured from issue time.
	if res.Summary.MeanAll < 100_000 {
		t.Fatalf("latency %.0fns does not reflect queueing from intended arrival times", res.Summary.MeanAll)
	}
	if res.InflightPeak < 100 {
		t.Fatalf("inflight peak %d too low for a saturated open loop", res.InflightPeak)
	}
}

// TestOpenLoopSessionPoolZeroAlloc pins the session-table claim at scale: with
// a million reserved idle request records, the issue-side machinery — record
// checkout, workload draw, arrival-stream draw, record return — allocates
// nothing.
func TestOpenLoopSessionPoolZeroAlloc(t *testing.T) {
	cfg := openConfig(core.Model{C: core.Eventual, P: core.EventualP}, 1e6)
	cfg.Params.Servers = 1
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	o := c.Sources[0]
	o.rt.reqs.Reserve(1_000_000)
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 64; i++ {
			q := o.rt.reqs.Get(1)
			q.op = o.gen.Next()
			q.at = o.arr.Next()
			q.client = -1
			o.rt.reqs.Put(q)
		}
	})
	if allocs > 0 {
		t.Fatalf("issue machinery allocated %.2f per 64-op batch at 1M pooled sessions, want 0", allocs)
	}
}

// TestOpenLoopMillionSessions is the acceptance-scale run: a deliberately
// underprovisioned single node (one worker, 500us service) offered 2 Gops/s
// accumulates over a million concurrent sessions. The run must stay on the
// arrival schedule the whole way — proof the session table costs
// O(in-flight records), not O(sessions) state machines.
func TestOpenLoopMillionSessions(t *testing.T) {
	cfg := openConfig(core.Model{C: core.Eventual, P: core.EventualP}, 2e9)
	cfg.Workload = ycsb.WorkloadC
	cfg.Params.Servers = 1
	cfg.Params.WorkersPerServer = 1
	cfg.Params.RequestCompute = 500_000
	cfg.WarmupNs = 100_000
	cfg.MeasureNs = 500_000
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Reserve records so the 1M ramp itself is allocation-free on the
	// session layer (records still cost memory — that is the O(in-flight)).
	c.routers[0].reqs.Reserve(1_250_000)
	res, err := runBuilt(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.InflightPeak < 1_000_000 {
		t.Fatalf("inflight peak %d, want >= 1M", res.InflightPeak)
	}
	want := cfg.Arrivals.RatePerSec * float64(cfg.MeasureNs) / 1e9
	if f := float64(res.Offered); f < 0.95*want || f > 1.05*want {
		t.Fatalf("arrival schedule drifted at scale: offered %d, want ~%.0f", res.Offered, want)
	}
}
