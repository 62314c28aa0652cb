package protocol

import (
	"testing"

	"repro/internal/core"
)

// TestKeyTableDenseFlatGroup pins the flat group's key table, the one-shard
// index every replica of a flat cluster shares: one slot per key, a distinct
// slot for every key, no stray key, and the accessor every protocol path goes
// through allocates nothing.
func TestKeyTableDenseFlatGroup(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.EventualP), 5, nil)
	r := tc.reps[0]
	if len(r.keys.slots) != r.p.Keys || len(r.keys.index) != r.p.Keys {
		t.Fatalf("flat replica holds %d slots over an index of %d keys, want %d of each",
			len(r.keys.slots), len(r.keys.index), r.p.Keys)
	}
	seen := map[*keyState]bool{}
	for k := uint64(0); k < uint64(r.p.Keys); k++ {
		ks := r.keys.at(k)
		if seen[ks] {
			t.Fatalf("key %d shares a slot with another key", k)
		}
		seen[ks] = true
	}
	if len(r.keys.stray) != 0 {
		t.Fatalf("touching every key of the flat group materialised %d stray keys", len(r.keys.stray))
	}
	var sink *keyState
	if a := testing.AllocsPerRun(100, func() { sink = r.keys.at(7) }); a != 0 {
		t.Fatalf("flat accessor allocated %.1f per call, want 0", a)
	}
	_ = sink
}

// TestKeyTableOwnedSlots checks the partitioned table: every key lands in
// exactly one shard's index, a replica holds slots for its shard's keys only,
// and a key of another shard reads as the zero state without taking a slot
// until it is first written.
func TestKeyTableOwnedSlots(t *testing.T) {
	const keys, shards = 100, 4
	idx, _ := PartitionKeys(keys, shards, func(k uint64) int { return int(k*7) % shards })
	total := 0
	for s := range idx {
		total += idx[s].owned
	}
	if total != keys {
		t.Fatalf("shards own %d keys in total, want %d", total, keys)
	}
	tab := newKeyTable(&idx[1])
	if len(tab.slots) != idx[1].owned {
		t.Fatalf("table holds %d slots, want %d owned", len(tab.slots), idx[1].owned)
	}
	seen := map[*keyState]bool{}
	for k := uint64(0); k < keys; k++ {
		owned := int(k*7)%shards == 1
		ks := tab.find(k)
		if owned != (ks != nil) {
			t.Fatalf("key %d: owned %v but slot present %v", k, owned, ks != nil)
		}
		if owned {
			if seen[ks] {
				t.Fatalf("key %d shares a slot with another key", k)
			}
			seen[ks] = true
		}
	}
	const stray = 2 // owned by shard 2
	ks := tab.at(stray)
	ks.visible = MakeStamp(3, 1)
	if got := tab.find(stray); got != ks || tab.at(stray) != ks {
		t.Fatalf("first-touched key did not keep its slot")
	}
	if len(tab.stray) != 1 || len(tab.slots) != idx[1].owned {
		t.Fatalf("first touch changed the owned slots (%d owned, %d stray)", len(tab.slots), len(tab.stray))
	}

	// A stray key materialises a bare keyState, the same 24-B record a slot
	// holds, with no per-key read-stall state beside it; reading a stray key
	// materialises nothing.
	if tab.stray[stray] != ks || *ks != (keyState{visible: MakeStamp(3, 1)}) {
		t.Fatalf("stray key holds %+v, want a bare keyState with the written version", *tab.stray[stray])
	}
	const untouched = 1 // owned by shard 3, never touched
	if tab.find(untouched) != nil {
		t.Fatalf("reading an untouched stray key materialised it")
	}
	tab.at(untouched).busy = 1
	if got := tab.find(untouched); got == nil || got.busy != 1 || len(tab.stray) != 2 {
		t.Fatalf("an untouched stray key did not keep the busy token written to it")
	}
}
