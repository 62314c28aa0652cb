package protocol

// KeyIndex maps the keys one shard owns to dense slot numbers, so a replica
// of that shard holds per-key state for its own slice of the key space only.
// It is immutable after PartitionKeys and shared by the shard's replicas.
type KeyIndex struct {
	slot  []int32 // key -> slot+1; 0 = owned by another shard
	owned int
}

// PartitionKeys builds one KeyIndex per shard over keys [0, keys), asking
// owner for each key's shard once.
func PartitionKeys(keys, shards int, owner func(key uint64) int) []KeyIndex {
	idx := make([]KeyIndex, shards)
	for s := range idx {
		idx[s].slot = make([]int32, keys)
	}
	for k := 0; k < keys; k++ {
		ix := &idx[owner(uint64(k))]
		ix.owned++
		ix.slot[k] = int32(ix.owned)
	}
	return idx
}

// keyTable is a replica's per-key protocol state. Without an index (the flat
// group) it is one slot per key, indexed directly. With one it holds a slot
// per owned key; a key of another shard — which the router never sends here —
// has no slot and reads as the zero keyState until something writes to it.
type keyTable struct {
	slots []keyState
	index []int32              // nil = dense
	stray map[uint64]*keyState // unowned keys, materialised on first touch
}

func newKeyTable(keys int, ix *KeyIndex) keyTable {
	if ix == nil {
		return keyTable{slots: make([]keyState, keys)}
	}
	return keyTable{slots: make([]keyState, ix.owned), index: ix.slot}
}

// find returns key's state, or nil if the key has none yet.
func (t *keyTable) find(key uint64) *keyState {
	if t.index == nil {
		return &t.slots[key]
	}
	if i := t.index[key]; i != 0 {
		return &t.slots[i-1]
	}
	return t.stray[key]
}

// at returns key's state for update, materialising it if need be.
func (t *keyTable) at(key uint64) *keyState {
	if ks := t.find(key); ks != nil {
		return ks
	}
	return t.touch(key)
}

// touch is the cold path of at: a first write to a key without a slot.
//
//go:noinline
func (t *keyTable) touch(key uint64) *keyState {
	if t.stray == nil {
		t.stray = make(map[uint64]*keyState)
	}
	ks := new(keyState)
	t.stray[key] = ks
	return ks
}
