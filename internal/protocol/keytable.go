package protocol

// KeyOwner is one key's place in a sharded key space: the shard that owns it
// and the key's dense slot in that shard's key tables.
type KeyOwner struct{ Shard, Slot int32 }

// KeyIndex maps the keys one shard owns to dense slot numbers, so a replica
// of that shard holds per-key state for its own slice of the key space only.
// It is immutable after PartitionKeys and shared by the shard's replicas.
type KeyIndex struct {
	owners []KeyOwner // every key's owner: one table for all shards' indexes
	shard  int32
	owned  int
}

// PartitionKeys builds one KeyIndex per shard over keys [0, keys), asking
// owner for each key's shard once. It returns the key -> owner table the
// indexes share too, for the router's lookups; it must not be modified.
func PartitionKeys(keys, shards int, owner func(key uint64) int) ([]KeyIndex, []KeyOwner) {
	owners := make([]KeyOwner, keys)
	idx := make([]KeyIndex, shards)
	for k := range owners {
		s := owner(uint64(k))
		owners[k] = KeyOwner{Shard: int32(s), Slot: int32(idx[s].owned)}
		idx[s].owned++
	}
	for s := range idx {
		idx[s].owners, idx[s].shard = owners, int32(s)
	}
	return idx, owners
}

// keyTable is a replica's per-key protocol state. Without an index (the flat
// group) it is one slot per key, indexed directly. With one it holds a slot
// per owned key; a key of another shard — which the router never sends here —
// has no slot and reads as the zero keyState until something writes to it.
//
// Two side tables beside slots hold what only some bindings write, so the
// others do not carry it in every key's slot; NewReplica builds each only
// under its bindings. trans, the read-stall state of the INV/ACK/VAL round,
// is parallel to slots (a stray key keeps its own beside its keyState); it
// exists under Linearizable, Read-Enforced and Transactional consistency.
// txn, Transactional consistency's two more fields per key, is dense over the
// whole key space, indexed by key: Validate keeps Transactional cells flat,
// so every key has a slot there anyway.
type keyTable struct {
	slots []keyState
	index []KeyOwner           // nil = dense
	shard int32                // the shard whose keys slots holds
	stray map[uint64]*strayKey // unowned keys, materialised on first touch
	trans []transKey           // nil outside the INV/ACK/VAL bindings
	txn   []txnKey             // nil outside Transactional consistency
}

// strayKey is the state of a key without a slot: its keyState and, under
// the INV/ACK/VAL bindings, its transKey.
type strayKey struct {
	ks keyState
	tk transKey
}

// transKey is a key's read-stall state at one replica under the INV/ACK/VAL
// bindings (12 B): transC holds stamps INVed but not yet validated for
// consistency, transP stamps not yet validated for persistency (VAL_p), and
// consWait is the tail token of the FIFO in Arena.waiters of the reads
// stalled until they are.
type transKey struct {
	transC   stampSet
	transP   stampSet
	consWait int32
}

// txnKey is a key's transactional state at one replica.
type txnKey struct {
	lockTxn   uint64 // transaction with an in-flight write to this key
	committed Stamp  // latest transactionally committed version
}

// txnAt returns key's transactional state (Transactional consistency only).
func (t *keyTable) txnAt(key uint64) *txnKey { return &t.txn[key] }

// transAt returns key's read-stall state for update, materialising a stray
// key if need be (INV/ACK/VAL bindings only).
func (t *keyTable) transAt(key uint64) *transKey {
	if t.index == nil {
		return &t.trans[key]
	}
	if o := t.index[key]; o.Shard == t.shard {
		return &t.trans[o.Slot]
	}
	t.at(key)
	return &t.stray[key].tk
}

func newKeyTable(keys int, ix *KeyIndex) keyTable {
	if ix == nil {
		return keyTable{slots: make([]keyState, keys)}
	}
	return keyTable{slots: make([]keyState, ix.owned), index: ix.owners, shard: ix.shard}
}

// find returns key's state, or nil if the key has none yet.
func (t *keyTable) find(key uint64) *keyState {
	if t.index == nil {
		return &t.slots[key]
	}
	if o := t.index[key]; o.Shard == t.shard {
		return &t.slots[o.Slot]
	}
	if sk := t.stray[key]; sk != nil {
		return &sk.ks
	}
	return nil
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
		t.stray = make(map[uint64]*strayKey)
	}
	sk := new(strayKey)
	t.stray[key] = sk
	return &sk.ks
}
