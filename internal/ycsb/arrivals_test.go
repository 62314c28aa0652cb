package ycsb

import (
	"testing"

	"repro/internal/sim"
)

// TestArrivalsGoldenSeeds pins the exact head of each shape's arrival stream
// for a fixed seed. Any change to the thinning loop, envelope, or RNG
// consumption order shows up here before it silently reshuffles every
// open-loop experiment.
func TestArrivalsGoldenSeeds(t *testing.T) {
	cases := []struct {
		name string
		spec ArrivalSpec
		want []int64
	}{
		{
			name: "poisson",
			spec: ArrivalSpec{Shape: ShapePoisson, RatePerSec: 1e6},
			want: []int64{215, 1042, 1708, 2024, 3652, 4525, 4884, 6471},
		},
		{
			name: "bursty",
			spec: ArrivalSpec{Shape: ShapeBursty, RatePerSec: 1e6, BurstFactor: 4, BurstFrac: 0.1, PeriodNs: 100_000},
			want: []int64{53, 220, 627, 717, 1438, 1537, 1674, 1678},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewArrivals(tc.spec, sim.NewRNG(42))
			if err != nil {
				t.Fatal(err)
			}
			got := make([]int64, len(tc.want))
			for i := range got {
				got[i] = a.Next()
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("arrival %d = %d, want %d (full: %v)", i, got[i], tc.want[i], got)
				}
			}
			// Same seed, fresh stream: byte-identical replay.
			b, _ := NewArrivals(tc.spec, sim.NewRNG(42))
			for i := range got {
				if v := b.Next(); v != got[i] {
					t.Fatalf("replay diverged at %d: %d vs %d", i, v, got[i])
				}
			}
		})
	}
}

// TestArrivalsMeanRate checks each shape's long-run rate converges on
// RatePerSec — the thinning envelope and the bursty off-rate compensation
// must preserve the mean.
func TestArrivalsMeanRate(t *testing.T) {
	specs := []ArrivalSpec{
		{Shape: ShapePoisson, RatePerSec: 2e6},
		{Shape: ShapeBursty, RatePerSec: 2e6, BurstFactor: 5, BurstFrac: 0.1, PeriodNs: 50_000},
	}
	const horizon = int64(50_000_000) // 50 ms
	for _, spec := range specs {
		a, err := NewArrivals(spec, sim.NewRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for a.Next() < horizon {
			n++
		}
		got := float64(n) / (float64(horizon) / 1e9)
		if got < 0.97*spec.RatePerSec || got > 1.03*spec.RatePerSec {
			t.Fatalf("%s: measured rate %.0f/s, want ~%.0f/s", spec.Shape, got, spec.RatePerSec)
		}
	}
}

// TestArrivalsBurstConcentration checks the bursty shape actually bursts:
// the in-burst fraction of arrivals is close to BurstFactor*BurstFrac.
func TestArrivalsBurstConcentration(t *testing.T) {
	spec := ArrivalSpec{Shape: ShapeBursty, RatePerSec: 2e6, BurstFactor: 5, BurstFrac: 0.1, PeriodNs: 100_000}
	a, err := NewArrivals(spec, sim.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	in, total := 0, 0
	for {
		at := a.Next()
		if at >= 50_000_000 {
			break
		}
		total++
		if a.InBurst(at) {
			in++
		}
	}
	frac := float64(in) / float64(total)
	want := spec.BurstFactor * spec.BurstFrac // 0.5
	if frac < want-0.05 || frac > want+0.05 {
		t.Fatalf("in-burst fraction %.3f, want ~%.2f", frac, want)
	}
}

// TestArrivalsMonotone: arrival times never decrease, for any shape.
func TestArrivalsMonotone(t *testing.T) {
	for _, spec := range []ArrivalSpec{
		{Shape: ShapePoisson, RatePerSec: 5e7},
		{Shape: ShapeBursty, RatePerSec: 5e7},
	} {
		a, err := NewArrivals(spec, sim.NewRNG(3))
		if err != nil {
			t.Fatal(err)
		}
		prev := int64(-1)
		for i := 0; i < 20000; i++ {
			at := a.Next()
			if at < prev {
				t.Fatalf("%s: arrival %d at %d before predecessor %d", spec.Shape, i, at, prev)
			}
			prev = at
		}
	}
}

// TestArrivalSpecValidate rejects each malformed field.
func TestArrivalSpecValidate(t *testing.T) {
	bad := []ArrivalSpec{
		{RatePerSec: 0},
		{RatePerSec: -1},
		{RatePerSec: 1e6, Shape: ShapeBursty, BurstFactor: 0.5, BurstFrac: 0.1},
		{RatePerSec: 1e6, Shape: ShapeBursty, BurstFactor: 4, BurstFrac: 1.5},
		{RatePerSec: 1e6, Shape: ShapeBursty, BurstFactor: 20, BurstFrac: 0.5},
		{RatePerSec: 1e6, HotFrac: 1.5},
		{RatePerSec: 1e6, HotKeys: -1},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, spec)
		}
	}
	good := ArrivalSpec{Shape: ShapeBursty, RatePerSec: 1e6}
	if err := good.Validate(); err != nil {
		t.Fatalf("defaulted bursty spec rejected: %v", err)
	}
}

// TestKeyOfRank matches the scatter Next applies, so storms target the keys
// the zipfian distribution actually heats.
func TestKeyOfRank(t *testing.T) {
	z := NewZipfian(256, 0.99)
	if z.KeyOfRank(0) != z.HottestKey() {
		t.Fatalf("rank 0 key %d != hottest key %d", z.KeyOfRank(0), z.HottestKey())
	}
	seen := map[uint64]bool{}
	for r := 0; r < 256; r++ {
		k := z.KeyOfRank(r)
		if k >= 256 {
			t.Fatalf("rank %d scattered out of space: %d", r, k)
		}
		if seen[k] {
			t.Fatalf("rank %d collides on key %d", r, k)
		}
		seen[k] = true
	}
}
