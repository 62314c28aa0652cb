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
