package protocol

import (
	"testing"

	"repro/internal/core"
)

// TestKeyTableDenseFlatGroup pins the flat group's key table: one slot per
// key, indexed directly, and the accessor every protocol path goes through
// allocates nothing.
func TestKeyTableDenseFlatGroup(t *testing.T) {
	tc := newTestCluster(mdl(core.Linearizable, core.EventualP), 5, nil)
	r := tc.reps[0]
	if r.keys.index != nil || len(r.keys.slots) != r.p.Keys {
		t.Fatalf("flat replica holds %d slots (indexed: %v), want a dense table of %d",
			len(r.keys.slots), r.keys.index != nil, r.p.Keys)
	}
	for _, k := range []uint64{0, 7, uint64(r.p.Keys - 1)} {
		if r.keys.at(k) != &r.keys.slots[k] {
			t.Fatalf("key %d does not index its own slot", k)
		}
	}
	var sink *keyState
	if a := testing.AllocsPerRun(100, func() { sink = r.keys.at(7) }); a != 0 {
		t.Fatalf("dense accessor allocated %.1f per call, want 0", a)
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
	tab := newKeyTable(keys, &idx[1])
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

	// The read-stall side table is parallel to the slots; a stray key keeps
	// its entry beside its keyState, and asking for one materialises the key.
	tab.trans = make([]transKey, len(tab.slots))
	for k := uint64(0); k < keys; k++ {
		if o := idx[1].owners[k]; o.Shard == 1 && tab.transAt(k) != &tab.trans[o.Slot] {
			t.Fatalf("owned key %d does not share its slot number with its read-stall entry", k)
		}
	}
	if tk := tab.transAt(stray); tk != &tab.stray[stray].tk || tab.transAt(stray) != tk || tab.find(stray) != ks {
		t.Fatalf("stray key's read-stall entry is not the one beside its keyState")
	}
	const untouched = 1 // owned by shard 3, never touched
	tab.transAt(untouched).transC = 1
	if tab.find(untouched) == nil || tab.transAt(untouched).transC != 1 || len(tab.stray) != 2 {
		t.Fatalf("read-stall entry of an untouched stray key did not materialise it")
	}
}
