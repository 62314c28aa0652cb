package protocol_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
)

// TestReplicaKeyTableFollowsOwnership runs the scaling study's largest shape
// (160 nodes = 32 shards x rf 5) and checks what each replica holds afterwards:
// slots for its own shard's keys only — at most twice the fair share — with
// the shards' tables partitioning the key space, and every other key reading
// as the zero state without growing the table.
func TestReplicaKeyTableFollowsOwnership(t *testing.T) {
	p := params.Default()
	p.Servers = 160
	const shards = 32
	c, err := cluster.New(cluster.Config{
		Model:     core.Model{C: core.Linearizable, P: core.Synchronous},
		Params:    p,
		Shards:    shards,
		Seed:      1,
		WarmupNs:  20_000,
		MeasureNs: 20_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Eng.Run(40_000)
	rf := p.Servers / shards
	total, written := 0, 0
	for i, r := range c.Replicas {
		slots := r.KeySlots()
		if slots > 2*p.Keys/shards {
			t.Fatalf("replica %d holds %d key slots, want <= %d", i, slots, 2*p.Keys/shards)
		}
		if i%rf == 0 {
			total += slots
		}
		for k := uint64(0); k < uint64(p.Keys); k++ {
			if !r.VisibleVersion(k).IsZero() {
				written++
			}
			_ = r.PersistedVersion(k)
		}
		if r.KeySlots() != slots {
			t.Fatalf("replica %d: reading every key grew the table from %d to %d slots", i, slots, r.KeySlots())
		}
	}
	if total != p.Keys {
		t.Fatalf("one replica per shard holds %d slots in total, want the key space (%d)", total, p.Keys)
	}
	if written == 0 {
		t.Fatal("the run made no version visible anywhere")
	}
}

// TestPendingWritesBounded pins what a coordinator keeps per in-flight write:
// over a 4 ms run of each Transactional binding on the default 5x20 YCSB-A
// cell, the pending-write records summed over replicas never exceed what the
// clients can have in flight (one transaction of XactionSize writes each).
// A follower that NACKs an INV never acknowledges it, so a NACKed write whose
// record stayed booked leaked one record per conflict: 5,490-9,110 at 4 ms,
// doubling with the run.
func TestPendingWritesBounded(t *testing.T) {
	for _, dp := range []core.Persistency{core.Strict, core.Synchronous, core.ReadEnforcedP, core.Scope, core.EventualP} {
		c, err := cluster.New(cluster.Config{Model: core.Model{C: core.Transactional, P: dp}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		p := c.Cfg.Params
		c.Start()
		for _, at := range []int64{500_000, 1_000_000, 2_000_000, 4_000_000} {
			c.Eng.Run(at)
			n := 0
			for _, r := range c.Replicas {
				n += r.PendingWrites()
			}
			if n > p.Clients()*p.XactionSize {
				t.Fatalf("<Transactional, %s> at %d ns: %d pending writes, want <= %d", dp, at, n, p.Clients()*p.XactionSize)
			}
		}
	}
}
