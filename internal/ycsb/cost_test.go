package ycsb_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/ycsb"
)

// TestZipfianConstructionCost counts the zeta series terms summed while a
// cluster is built. The chooser's constants depend on the key space alone, so
// every load stream of a cluster shares one chooser and the cost is one
// chooser's worth — Keys+2 terms — however many streams there are: the 3,200
// client generators of the scaling study's largest cell (160 servers x 20
// clients), or the open-loop sources of a flat group.
func TestZipfianConstructionCost(t *testing.T) {
	big := params.Default()
	big.Servers = 160
	for _, tc := range []struct {
		name    string
		cfg     cluster.Config
		streams int
	}{
		{"closed-160x20", cluster.Config{Params: big, Shards: 32}, 3200},
		{"open-5", cluster.Config{Params: params.Default(),
			Arrivals: &ycsb.ArrivalSpec{Shape: ycsb.ShapePoisson, RatePerSec: 1e6}}, 5},
	} {
		tc.cfg.Model = core.Model{C: core.Eventual, P: core.EventualP}
		streams := 0
		terms := ycsb.CountZetaTerms(func() {
			c, err := cluster.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			streams = len(c.Clients) + len(c.Sources)
		})
		if streams != tc.streams {
			t.Fatalf("%s: built %d load streams, want %d", tc.name, streams, tc.streams)
		}
		if want := tc.cfg.Params.Keys + 2; terms != want {
			t.Fatalf("%s: building %d load streams summed %d zeta terms, want %d (one chooser: zeta(Keys) + zeta(2))",
				tc.name, streams, terms, want)
		}
	}
}
