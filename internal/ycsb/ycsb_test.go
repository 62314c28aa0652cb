package ycsb

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want float64
	}{
		{"A", 0.50}, {"b", 0.95}, {"C", 1.00}, {"w", 0.05}, {"workload-A", 0.50},
	} {
		w, err := ByName(tc.name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", tc.name, err)
		}
		if w.ReadRatio != tc.want {
			t.Fatalf("ByName(%q).ReadRatio = %g, want %g", tc.name, w.ReadRatio, tc.want)
		}
	}
	if _, err := ByName("Z"); err == nil {
		t.Fatal("unknown workload did not error")
	}
}

// TestWorkloadValidate rejects each malformed field with an error naming it,
// and accepts every predefined mix.
func TestWorkloadValidate(t *testing.T) {
	for _, tc := range []struct {
		field string
		w     Workload
	}{
		{"ReadRatio", Workload{ReadRatio: 2}},
		{"ReadRatio", Workload{ReadRatio: math.NaN()}},
		{"ScanRatio", Workload{ScanRatio: -0.1}},
		{"RMWRatio", Workload{RMWRatio: -0.1}},
		{"ScanRatio+RMWRatio", Workload{ScanRatio: 0.6, RMWRatio: 0.6}},
		{"MaxScanLen", Workload{ScanRatio: 0.5, MaxScanLen: -1}},
	} {
		t.Run(tc.field, func(t *testing.T) {
			err := tc.w.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.field+" must") {
				t.Fatalf("%+v: got %v, want the %s error", tc.w, err, tc.field)
			}
		})
	}
	for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadW, WorkloadE, WorkloadF} {
		if err := w.Validate(); err != nil {
			t.Fatalf("%s rejected: %v", w.Name, err)
		}
	}
}

func TestUniformCoversSpace(t *testing.T) {
	u := Uniform{N: 10}
	r := sim.NewRNG(1)
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		k := u.Next(r)
		if k >= 10 {
			t.Fatalf("uniform key %d out of range", k)
		}
		seen[k] = true
	}
	if len(seen) != 10 {
		t.Fatalf("uniform missed keys: %d of 10", len(seen))
	}
}

func TestZipfianInRangeAndSkewed(t *testing.T) {
	const n = 1000
	z := NewZipfian(n, 0.99)
	r := sim.NewRNG(7)
	counts := map[uint64]int{}
	const draws = 200000
	for i := 0; i < draws; i++ {
		k := z.Next(r)
		if k >= n {
			t.Fatalf("zipfian key %d out of range", k)
		}
		counts[k]++
	}
	hot := counts[z.HottestKey()]
	// With theta=0.99 over 1000 keys the hottest key draws ~1/zeta ~ 13%.
	frac := float64(hot) / draws
	if frac < 0.08 || frac > 0.20 {
		t.Fatalf("hottest key frequency %.3f outside [0.08,0.20]", frac)
	}
	// Uniform share would be 0.1%; the distribution must be far from flat.
	if len(counts) < n/4 {
		t.Fatalf("zipfian visited only %d keys", len(counts))
	}
}

func TestZipfianLowThetaFlatter(t *testing.T) {
	const n, draws = 500, 100000
	r1, r2 := sim.NewRNG(3), sim.NewRNG(3)
	high := NewZipfian(n, 0.99)
	low := NewZipfian(n, 0.2)
	hc := map[uint64]int{}
	lc := map[uint64]int{}
	for i := 0; i < draws; i++ {
		hc[high.Next(r1)]++
		lc[low.Next(r2)]++
	}
	if hc[high.HottestKey()] <= lc[low.HottestKey()] {
		t.Fatalf("theta=0.99 hot share (%d) should exceed theta=0.2 (%d)",
			hc[high.HottestKey()], lc[low.HottestKey()])
	}
}

func TestGeneratorMixMatchesWorkload(t *testing.T) {
	for _, w := range []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadW} {
		g := NewGenerator(w, Uniform{N: 100}, sim.NewRNG(5))
		const n = 50000
		reads, writes := 0, 0
		for i := 0; i < n; i++ {
			switch g.Next().Kind {
			case OpRead, OpScan:
				reads++
			case OpWrite, OpRMW:
				writes++
			}
		}
		if reads+writes != n {
			t.Fatalf("%s: counts do not sum: %d+%d", w.Name, reads, writes)
		}
		got := float64(reads) / n
		if math.Abs(got-w.ReadRatio) > 0.01 {
			t.Fatalf("%s: read fraction %.3f, want %.2f", w.Name, got, w.ReadRatio)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	mk := func() *Generator {
		return NewGenerator(WorkloadA, NewZipfian(100, 0.99), sim.NewRNG(42))
	}
	a, b := mk(), mk()
	for i := 0; i < 1000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("streams diverged at %d: %+v vs %+v", i, x, y)
		}
	}
}

func TestGeneratorIndependentClients(t *testing.T) {
	root := sim.NewRNG(9)
	g1 := NewGenerator(WorkloadA, NewZipfian(1000, 0.99), root.Fork())
	g2 := NewGenerator(WorkloadA, NewZipfian(1000, 0.99), root.Fork())
	same := 0
	for i := 0; i < 1000; i++ {
		if g1.Next() == g2.Next() {
			same++
		}
	}
	if same > 300 { // hot keys overlap naturally, full streams must not
		t.Fatalf("client streams suspiciously identical: %d/1000 equal ops", same)
	}
}

func TestOpKindString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Fatal("OpKind strings wrong")
	}
}

// TestGeneratorGoldenSeed pins the head of the zipfian op stream for a fixed
// seed, as generated before the chooser's constants moved into its
// constructor: any change to the rank arithmetic or to RNG consumption shows
// up here before it reshuffles every experiment. Two generators sharing one
// chooser must each produce the pinned stream.
func TestGeneratorGoldenSeed(t *testing.T) {
	cases := []struct {
		theta float64
		want  string
	}{
		{0.99, "read:62 read:1773 write:1534 write:1420 read:1320 read:427 read:1144 write:1692 " +
			"read:251 write:1773 write:1106 write:729 write:1860 read:251 read:729 write:1243 "},
		{0.5, "read:574 read:1206 write:602 write:195 read:122 read:1519 read:1079 write:832 " +
			"read:1307 write:552 write:272 write:100 write:1402 read:1521 read:251 write:206 "},
	}
	for _, c := range cases {
		shared := NewZipfian(2000, c.theta)
		for g := 0; g < 2; g++ {
			gen := NewGenerator(WorkloadA, shared, sim.NewRNG(42))
			got := ""
			for i := 0; i < 16; i++ {
				op := gen.Next()
				got += fmt.Sprintf("%s:%d ", op.Kind, op.Key)
			}
			if got != c.want {
				t.Fatalf("theta %v generator %d:\n got %s\nwant %s", c.theta, g, got, c.want)
			}
		}
	}
}
