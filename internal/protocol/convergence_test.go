package protocol

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/sim"
)

// driveRandomOps submits a randomized mix of reads and writes from every
// node and runs the cluster to quiescence.
func driveRandomOps(tc *testCluster, seed uint64, ops int) (completedWrites int) {
	r := sim.NewRNG(seed)
	for i := 0; i < ops; i++ {
		node := tc.reps[r.Intn(len(tc.reps))]
		key := uint64(r.Intn(48))
		at := r.Int63n(200_000)
		if r.Intn(2) == 0 {
			tc.eng.At(at, func() {
				node.ClientWrite(key, 0, 0, stampDone(func(Stamp) { completedWrites++ }), 0)
			})
		} else {
			tc.eng.At(at, func() {
				node.ClientRead(key, 0, stampDone(func(Stamp) {}), 0)
			})
		}
	}
	tc.run()
	return completedWrites
}

// TestConvergenceAllModels drives random traffic through every
// non-transactional model and asserts the quiescent-state invariants:
//
//  1. Convergence: every replica holds the same visible version per key.
//  2. Durability: persisted state matches the model's DP promise.
//  3. Liveness: every submitted write completed.
func TestConvergenceAllModels(t *testing.T) {
	for _, m := range core.AllModels() {
		if m.C == core.Transactional {
			continue // exercised by the transactional tests
		}
		if m.P == core.Scope {
			continue // scope persists need explicit barriers; tested below
		}
		m := m
		t.Run(m.String(), func(t *testing.T) {
			tc := newTestCluster(m, 3, func(p *params.Params) {
				p.ClientsPerServer = 4
			})
			const ops = 400
			writes := driveRandomOps(tc, 99, ops)
			if writes == 0 {
				t.Fatal("no writes completed")
			}

			for key := uint64(0); key < 48; key++ {
				v0 := tc.reps[0].VisibleVersion(key)
				for i, r := range tc.reps[1:] {
					if got := r.VisibleVersion(key); got != v0 {
						t.Fatalf("key %d: replica %d visible %v != replica 0 %v",
							key, i+1, got, v0)
					}
				}
				// At quiescence every persistency model except Scope has
				// persisted the final version everywhere.
				for i, r := range tc.reps {
					if got := r.PersistedVersion(key); got != v0 {
						t.Fatalf("key %d: replica %d persisted %v != visible %v under %s",
							key, i, got, v0, m)
					}
				}
			}

			// No causal buffer leaks.
			for i, r := range tc.reps {
				if r.BufferLen() != 0 {
					t.Fatalf("replica %d still buffers %d updates", i, r.BufferLen())
				}
			}
		})
	}
}

// TestConvergenceScopeModels drives scoped traffic with explicit barriers.
func TestConvergenceScopeModels(t *testing.T) {
	for _, c := range []core.Consistency{core.Linearizable, core.ReadEnforcedC, core.Causal, core.Eventual} {
		m := core.Model{C: c, P: core.Scope}
		t.Run(m.String(), func(t *testing.T) {
			tc := newTestCluster(m, 3, nil)
			r := sim.NewRNG(7)
			scope := uint64(1)
			completed := 0
			// Issue 5 scoped writes then a barrier, from node 0.
			var issue func(i int)
			issue = func(i int) {
				if i == 15 {
					return
				}
				if i%5 == 4 {
					s := scope
					tc.reps[0].ClientWrite(uint64(r.Intn(32)), s, 0, stampDone(func(Stamp) {
						tc.reps[0].ClientPersistScope(s, scopeDone(func() {
							completed++
							scope++
							issue(i + 1)
						}), 0)
					}), 0)
					return
				}
				tc.reps[0].ClientWrite(uint64(r.Intn(32)), scope, 0, stampDone(func(Stamp) {
					completed++
					issue(i + 1)
				}), 0)
			}
			tc.eng.Schedule(0, func() { issue(0) })
			tc.run()
			if completed == 0 {
				t.Fatal("scoped flow made no progress")
			}
			// All barriered writes persisted everywhere and backlogs empty.
			for i, rep := range tc.reps {
				if rep.ScopeBacklog() != 0 {
					t.Fatalf("replica %d scope backlog %d after barriers", i, rep.ScopeBacklog())
				}
				for key := uint64(0); key < 32; key++ {
					if v := rep.VisibleVersion(key); !v.IsZero() {
						if p := rep.PersistedVersion(key); p != v {
							t.Fatalf("replica %d key %d: persisted %v != visible %v after final barrier",
								i, key, p, v)
						}
					}
				}
			}
		})
	}
}

// TestStalenessOrdering verifies that at any single node the visible stamp
// for a key never regresses, regardless of the delivery schedule — the
// last-writer-wins version-control invariant.
func TestStalenessOrdering(t *testing.T) {
	tc := newTestCluster(mdl(core.Eventual, core.EventualP), 2, func(p *params.Params) {
		p.EventualLag = 0
	})
	r1 := tc.reps[1]
	stamps := []Stamp{MakeStamp(9, 0), MakeStamp(3, 0), MakeStamp(7, 0), MakeStamp(12, 0), MakeStamp(5, 0)}
	tc.eng.Schedule(0, func() {
		last := Stamp(0)
		for _, st := range stamps {
			r1.dispatch(0, payload{Kind: MsgUPD, Key: 1, Stamp: st})
			if v := r1.VisibleVersion(1); v < last {
				t.Errorf("visible regressed: %v after %v", v, last)
			} else {
				last = v
			}
		}
	})
	tc.run()
	if got := r1.VisibleVersion(1); got != MakeStamp(12, 0) {
		t.Fatalf("final visible = %v, want 12.0", got)
	}
}
