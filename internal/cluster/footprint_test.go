package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/ycsb"
)

// TestSharedChooserKeepsStreams checks that sharing one chooser across a
// cluster (ycsb's TestZipfianConstructionCost counts that it is one) moved no
// stream: every closed-loop client generator and open-loop source still
// produces exactly what a private chooser on the same RNG fork would, in the
// fork order New has always used (one fork per node's memory hierarchy, then
// per stream: generator, [arrivals,] owner).
func TestSharedChooserKeepsStreams(t *testing.T) {
	for _, open := range []bool{false, true} {
		cfg := smallConfig(core.Model{C: core.Causal, P: core.Synchronous})
		if open {
			cfg.Arrivals = &ycsb.ArrivalSpec{Shape: ycsb.ShapePoisson, RatePerSec: 1e6}
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var gens []*ycsb.Generator
		for _, cl := range c.Clients {
			gens = append(gens, cl.gen)
		}
		for _, src := range c.Sources {
			gens = append(gens, src.gen)
		}
		if len(gens) < 2 {
			t.Fatalf("open=%v: only %d load streams built", open, len(gens))
		}
		p := c.Cfg.Params
		rng := sim.NewRNG(cfg.Seed ^ 0xddf0ddf0)
		for i := 0; i < p.Servers; i++ {
			rng.Fork()
		}
		for i, g := range gens {
			private := ycsb.NewGenerator(cfg.Workload, ycsb.NewZipfian(p.Keys, p.ZipfTheta), rng.Fork())
			if open {
				rng.Fork()
			}
			rng.Fork()
			for n := 0; n < 64; n++ {
				if got, want := g.Next(), private.Next(); got != want {
					t.Fatalf("open=%v: stream %d op %d = %+v, want %+v (private chooser, same fork)", open, i, n, got, want)
				}
			}
		}
	}
}

// TestBoxPoolSharedAcrossReplicas pins the sequential wiring's one payload-box
// pool: every replica draws from the same pool, and the spare boxes left at
// the end of a sharded <Ev,Ev> cell stay within twice the peak number of
// messages in flight. A pool per replica fails this: a replica gets back boxes
// its peers took, so each stack fills with its receive surplus and the spares
// add up to several times what was ever in flight. The peak is sampled just
// before each delivery, where it is attained.
func TestBoxPoolSharedAcrossReplicas(t *testing.T) {
	c, err := New(sharded16Cell(100_000, 300_000))
	if err != nil {
		t.Fatal(err)
	}
	var delivered uint64
	peak := 0
	for i, rep := range c.Replicas {
		rt := c.routers[i]
		c.Net.Register(i, func(m simnet.Message) {
			peak = max(peak, int(c.Net.Messages()-delivered))
			delivered++
			if m.Kind >= kindRouteReq {
				rt.onMessage(m)
			} else {
				rep.HandleNetMessage(m)
			}
		})
	}
	if _, err := runBuilt(c); err != nil {
		t.Fatal(err)
	}
	pools := map[*protocol.BoxPool]bool{}
	spare := 0
	for _, rep := range c.Replicas {
		if b := rep.Boxes(); !pools[b] {
			pools[b] = true
			spare += b.Spare()
		}
	}
	if len(pools) != 1 || spare > 2*peak {
		t.Fatalf("%d box pools hold %d spare boxes, want one pool within 2x the peak of %d messages in flight", len(pools), spare, peak)
	}
	t.Logf("%d spare boxes, peak %d messages in flight", spare, peak)
}

// TestScopeHistogramAllocatedOnFirstUse pins that only Scope bindings pay for
// the per-node scope histogram, and that their results still carry it.
func TestScopeHistogramAllocatedOnFirstUse(t *testing.T) {
	for _, tc := range []struct {
		p     core.Persistency
		scope bool
	}{{core.Synchronous, false}, {core.Scope, true}} {
		c, err := New(smallConfig(core.Model{C: core.Linearizable, P: tc.p}))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runBuilt(c)
		if err != nil {
			t.Fatal(err)
		}
		for i, ns := range c.nodes {
			if (ns.scopeHist != nil) != tc.scope {
				t.Fatalf("%s: node %d scope histogram allocated = %v, want %v", tc.p, i, ns.scopeHist != nil, tc.scope)
			}
		}
		if (res.ScopeHist.Count() > 0) != tc.scope {
			t.Fatalf("%s: result carries %d scope samples", tc.p, res.ScopeHist.Count())
		}
	}
}
