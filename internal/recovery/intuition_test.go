package recovery

import (
	"cmp"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// TestByDoneAtMatchesStableSort checks the monotonic audit's merge against
// the stable sort it replaced: on random logs of 1 to 40 nondecreasing runs
// (one per node, as Collect concatenates them; empty ones too) whose DoneAt
// values tie often within and across runs, and on logs of random order,
// byDoneAt visits every read exactly where slices.SortStableFunc by DoneAt
// puts it.
func TestByDoneAtMatchesStableSort(t *testing.T) {
	rng := sim.NewRNG(11)
	for trial := 0; trial < 500; trial++ {
		var log []cluster.ReadRecord
		if trial%5 == 4 {
			for i := rng.Intn(200); i > 0; i-- {
				log = append(log, cluster.ReadRecord{DoneAt: rng.Int63n(50)})
			}
		} else {
			for runs := 1 + rng.Intn(40); runs > 0; runs-- {
				at := rng.Int63n(100)
				for i := rng.Intn(30); i > 0; i-- {
					at += rng.Int63n(3) // ties within the run
					log = append(log, cluster.ReadRecord{DoneAt: at})
				}
			}
		}
		for i := range log {
			log[i].Client = i // names each read's place in the log
		}
		want := slices.Clone(log)
		slices.SortStableFunc(want, func(a, b cluster.ReadRecord) int { return cmp.Compare(a.DoneAt, b.DoneAt) })
		var got []cluster.ReadRecord
		byDoneAt(log, func(r *cluster.ReadRecord) { got = append(got, *r) })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: %d reads visited in an order other than the stable sort's", trial, len(log))
		}
	}
}
