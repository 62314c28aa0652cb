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

// keyTable holds a replica's per-key versions: a slot per key its shard owns
// (every key, in key order, for the one shard of a flat cluster). A key of
// another shard — which the router never sends here — has no slot and reads
// as the zero keyState until something writes to it.
//
// A slot holds a keyState only: the key's two versions and the token of its
// busy record, which the key holds only while something is in flight on it
// (see busyKey). txn, Transactional consistency's two more fields per key, is
// the one side table: NewReplica builds it under that consistency only, dense
// over the whole key space and indexed by key, since Validate keeps
// Transactional cells flat, so every key has a slot there anyway.
type keyTable struct {
	slots []keyState
	index []KeyOwner           // every key's owner and slot
	shard int32                // the shard whose keys slots holds
	stray map[uint64]*keyState // unowned keys, materialised on first touch
	txn   []txnKey             // nil outside Transactional consistency
}

// txnKey is a key's transactional state at one replica.
type txnKey struct {
	lockTxn   uint64 // transaction with an in-flight write to this key
	committed Stamp  // latest transactionally committed version
}

// txnAt returns key's transactional state (Transactional consistency only).
func (t *keyTable) txnAt(key uint64) *txnKey { return &t.txn[key] }

func newKeyTable(ix *KeyIndex) keyTable {
	return keyTable{slots: make([]keyState, ix.owned), index: ix.owners, shard: ix.shard}
}

// find returns key's state, or nil if the key has none yet.
func (t *keyTable) find(key uint64) *keyState {
	if o := t.index[key]; o.Shard == t.shard {
		return &t.slots[o.Slot]
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

// busyKey is what a key holds while something is in flight on it, in a slot
// of Arena.busy named by its keyState's busy token (40 B, 48 with the slot's
// link). No collection is a slice or map of its own: each is a token into
// another slab of the arena, so taking a record allocates nothing once the
// slabs are warm.
//
// Write-back coalescing: at most one persist per key is in flight
// (persistInFlight); newer stamps arriving meanwhile raise dirtyStamp and
// ride the follow-up write-back. issuedStamp is the stamp the in-flight
// write covers, persistCbs the tail token of the FIFO in Arena.conts of the
// continuations waiting for a covering write-back, and persWait the tail of
// the FIFO in Arena.waiters of the reads stalled until the key is locally
// persisted. Under the INV/ACK/VAL bindings that stall reads, transC holds
// the stamps INVed but not yet validated for consistency, transP those not
// yet validated for persistency (VAL_p), and consWait is the FIFO of the
// reads stalled until they are.
type busyKey struct {
	dirtyStamp      Stamp
	issuedStamp     Stamp
	persistCbs      int32
	persWait        int32
	consWait        int32
	transC          stampSet
	transP          stampSet
	persistInFlight bool
}

// busyOf returns ks's busy record, taking one from the arena if the key is
// idle. Taking one may move Arena.busy's backing array, so a caller holds
// the returned pointer only until its next call that can take a record
// (one that persists, stalls a read or marks a stamp transient, on any key)
// and then looks it up again through ks.busy.
func (r *Replica) busyOf(ks *keyState) *busyKey {
	if ks.busy == 0 {
		ks.busy = r.arena.busy.Put(busyKey{})
	}
	return r.arena.busy.At(ks.busy)
}

// settle frees ks's busy record once it holds nothing a freed record would
// lose: no write-back in flight or owed (dirtyStamp is read only while one
// is in flight, issuedStamp only at its completion), and every FIFO and
// stamp set empty. A continuation waiting for a write-back has a stamp at
// most dirtyStamp, so a record with one is never freed. Every site that
// empties part of a record calls settle last, after the reads and
// continuations it resumed ran, so a record those re-filed into stays.
func (r *Replica) settle(ks *keyState) {
	if ks.busy == 0 {
		return
	}
	b := r.arena.busy.At(ks.busy)
	if !b.persistInFlight && b.dirtyStamp <= ks.persisted && b.persistCbs == 0 &&
		b.persWait == 0 && b.consWait == 0 && b.transC == 0 && b.transP == 0 {
		r.arena.busy.Take(ks.busy)
		ks.busy = 0
	}
}
