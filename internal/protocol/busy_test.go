package protocol

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/sim"
)

// TestBusyRecordsDrainAtQuiescence runs random writes (some followed by a
// read of their key as they complete), reads, RMWs and scans from every node
// of a 3-server cell through each of the 25 bindings to quiescence — under
// Scope persistency, then a barrier per session; under Transactional
// consistency, plus a two-write transaction per node — and checks that every
// key is idle again: no replica's key holds a busy token and the arena's busy
// slab has no live record, though the run took some. Outside Transactional
// consistency, where a conflict may squash a write, every request also
// completed, so no read waits in a freed record. The strays variant gives the
// replicas shard 0's key table of a two-shard partition and sends them the
// other shard's keys too, whose states materialise as stray keyStates and go
// busy and idle like owned ones. The nocoalesce variant runs the
// NoPersistCoalescing ablation, whose device writes bypass the busy record,
// so a read stalled until its key is persisted (Read-Enforced persistency
// under weak consistency) is all a record holds.
func TestBusyRecordsDrainAtQuiescence(t *testing.T) {
	const keys, ops = 64, 300 // newTestCluster's key space
	idx, _ := PartitionKeys(keys, 2, func(k uint64) int { return int(k % 2) })
	for _, variant := range []string{"", "strays ", "nocoalesce "} {
		strays := variant == "strays "
		for _, m := range core.AllModels() {
			t.Run(variant+m.String(), func(t *testing.T) {
				tc := newTestCluster(m, 3, func(p *params.Params) {
					p.NoPersistCoalescing = variant == "nocoalesce "
					p.RequestCompute = 1 // a read after a write lands inside its persist
				})
				if strays {
					for _, r := range tc.reps {
						tab := newKeyTable(&idx[0])
						tab.txn = r.keys.txn
						r.keys = tab
					}
				}
				issued, completed := 0, 0
				done := Func(func(uint64) { completed++ })
				session := func(node int) uint64 {
					if m.P != core.Scope {
						return 0
					}
					return uint64(node+1)<<32 | 1
				}
				rng := sim.NewRNG(5)
				for i := 0; i < ops; i++ {
					node := rng.Intn(len(tc.reps))
					r, key, scope := tc.reps[node], uint64(rng.Intn(keys)), session(node)
					if issued++; i%4 == 1 {
						issued++ // and a read once the write completes
					}
					tc.eng.At(rng.Int63n(100_000), func() {
						switch i % 4 {
						case 0:
							r.ClientWrite(key, scope, 0, done, 0)
						case 1:
							r.ClientWrite(key, scope, 0, Func(func(uint64) {
								completed++
								r.ClientRead(key, 0, done, 0)
							}), 0)
						case 2:
							r.ClientRead(key, 0, done, 0)
						default:
							if i%8 == 3 {
								r.ClientRMW(key, scope, 0, done, 0)
							} else {
								r.ClientScan(key, 4, done, 0)
							}
						}
					})
				}
				if m.C == core.Transactional {
					for node, r := range tc.reps {
						k1, k2 := uint64(node), uint64(node+keys/2)
						tc.eng.At(50_000, func() {
							r.ClientInitTxn(initDone(nil, func(txn uint64) {
								r.ClientWrite(k1, 0, txn, stampDone(func(Stamp) {
									r.ClientWrite(k2, 0, txn, stampDone(func(Stamp) {
										r.ClientEndTxn(txn, Func(func(uint64) {}), 0)
									}), 0)
								}), 0)
							}), 0)
						})
					}
				}
				tc.run()
				if m.P == core.Scope {
					for node, r := range tc.reps {
						issued++
						tc.eng.Schedule(0, func() { r.ClientPersistScope(session(node), done, 0) })
					}
					tc.run()
				}

				if m.C != core.Transactional && completed != issued {
					t.Errorf("%d of %d requests completed", completed, issued)
				}
				took := 0
				for i, r := range tc.reps {
					for k := uint64(0); k < keys; k++ {
						if ks := r.keys.find(k); ks != nil && ks.busy != 0 {
							t.Errorf("replica %d: key %d still holds busy token %d", i, k, ks.busy)
						}
					}
					if n := r.arena.busy.Live(); n != 0 {
						t.Errorf("replica %d: %d busy records live at quiescence", i, n)
					}
					took += r.arena.busy.Slots()
					if strays && len(r.keys.stray) == 0 {
						t.Errorf("replica %d materialised no stray key", i)
					}
				}
				// Without the ablation every binding's write-backs take records;
				// with it, only its stalled reads and transient stamps do.
				rules := core.RulesOf(m)
				if took == 0 && (variant != "nocoalesce " || rules.ReadsStallOnTransient || rules.ReadsWaitLocalPersist) {
					t.Errorf("no replica took a busy record: the run exercised nothing")
				}
			})
		}
	}
}
