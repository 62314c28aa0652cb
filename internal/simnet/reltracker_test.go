package simnet

import (
	"math"
	"testing"

	"repro/internal/sim"
)

// scanTracker is the release tracker as it was before the active list: the
// same per-destination rings, released by scanning every destination's head.
// It stays here as the oracle for TestRelTrackerMatchesFullScan.
type scanTracker struct {
	rings  []relRing
	headTs []int64
	n      int
	next   int64
}

func newScanTracker(nodes int) *scanTracker {
	h := &scanTracker{rings: make([]relRing, nodes), headTs: make([]int64, nodes), next: math.MaxInt64}
	for d := range h.headTs {
		h.headTs[d] = math.MaxInt64
	}
	return h
}

// release pops every entry at or before now.
func (h *scanTracker) release(now int64) {
	if now < h.next {
		return
	}
	next := int64(math.MaxInt64)
	for i, ht := range h.headTs {
		for ht <= now {
			r := &h.rings[i]
			r.pos++
			h.n--
			if r.pos == len(r.ts) {
				r.ts = r.ts[:0]
				r.pos = 0
				ht = math.MaxInt64
			} else {
				ht = r.ts[r.pos]
			}
		}
		h.headTs[i] = ht
		if ht < next {
			next = ht
		}
	}
	h.next = next
}

func (h *scanTracker) push(dst int, t int64) {
	r := &h.rings[dst]
	if r.pos == len(r.ts) {
		h.headTs[dst] = t
	}
	r.ts = append(r.ts, t)
	h.n++
	if t < h.next {
		h.next = t
	}
}

// pending lists, per destination, the release times still held.
func pending(rings []relRing) [][]int64 {
	out := make([][]int64, len(rings))
	for d := range rings {
		out[d] = rings[d].ts[rings[d].pos:]
	}
	return out
}

// TestRelTrackerMatchesFullScan drives the tracker and the full-scan oracle
// with the same random push/release sequences — per-destination times
// monotone, as the pair-FIFO clamp guarantees — and requires, after every
// step, the same in-flight count, the same earliest pending release, and the
// same entries left on every destination (so the same entries released). The
// active list must also name exactly the non-empty rings, each once, with its
// head.
func TestRelTrackerMatchesFullScan(t *testing.T) {
	for _, nodes := range []int{1, 5, 160} {
		for seed := uint64(1); seed <= 20; seed++ {
			rng := sim.NewRNG(seed)
			got := newRelTracker(nodes)
			want := newScanTracker(nodes)
			last := make([]int64, nodes)
			now := int64(0)
			for step := 0; step < 2000; step++ {
				if rng.Intn(3) == 0 {
					now += int64(rng.Intn(400))
					got.release(now)
					want.release(now)
				} else {
					// Bursts to few destinations and spread to many both occur.
					dst := rng.Intn(nodes)
					if rng.Intn(2) == 0 {
						dst = rng.Intn(1 + nodes/8)
					}
					at := now + 1 + int64(rng.Intn(600))
					if at < last[dst] {
						at = last[dst]
					}
					last[dst] = at
					got.push(dst, at)
					want.push(dst, at)
				}
				if got.len() != want.n || got.next != want.next {
					t.Fatalf("nodes=%d seed=%d step %d: len %d next %d, oracle len %d next %d",
						nodes, seed, step, got.len(), got.next, want.n, want.next)
				}
				gp, wp := pending(got.rings), pending(want.rings)
				listed := 0
				for d := range gp {
					if len(gp[d]) != len(wp[d]) {
						t.Fatalf("nodes=%d seed=%d step %d: destination %d holds %d entries, oracle %d",
							nodes, seed, step, d, len(gp[d]), len(wp[d]))
					}
					for i := range gp[d] {
						if gp[d][i] != wp[d][i] {
							t.Fatalf("nodes=%d seed=%d step %d: destination %d entry %d = %d, oracle %d",
								nodes, seed, step, d, i, gp[d][i], wp[d][i])
						}
					}
					if len(gp[d]) > 0 {
						listed++
					}
				}
				if len(got.active) != listed {
					t.Fatalf("nodes=%d seed=%d step %d: %d active entries for %d non-empty rings",
						nodes, seed, step, len(got.active), listed)
				}
				seen := map[int32]bool{}
				for _, a := range got.active {
					if seen[a.dst] {
						t.Fatalf("nodes=%d seed=%d step %d: destination %d is listed twice", nodes, seed, step, a.dst)
					}
					seen[a.dst] = true
					if p := gp[a.dst]; len(p) == 0 || p[0] != a.ts {
						t.Fatalf("nodes=%d seed=%d step %d: active entry {%d,%d} does not mirror its ring head %v",
							nodes, seed, step, a.dst, a.ts, p)
					}
				}
			}
			if cap(got.active) != nodes {
				t.Fatalf("nodes=%d: active list regrew to cap %d", nodes, cap(got.active))
			}
		}
	}
}
