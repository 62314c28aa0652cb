package engines

import "unsafe"

// HashTable is an open-addressing hash table with linear probing and
// tombstone deletion. It is the cheapest engine per operation and the
// baseline for OpCost.
//
// A slot is 24 bytes: the key, the version, and a reference to a refcounted
// value entry. A Put that stores the same slice (the same data pointer, length
// and capacity) as the entry made last shares that entry; any other value gets
// an entry of its own. Get returns the slice exactly as stored, and an entry
// is released when its last key is overwritten or deleted, so entries never
// outnumber live keys. The layout is tuned for a replica's store, whose every
// value is one shared payload: it holds one entry however many keys it has.
// A table whose keys hold distinct values pays a 32-byte entry per key on top
// of the slot: it retains a little less than the 48-byte slot with an inline
// value did, and an overwrite that changes a key's value costs about a fifth
// more (BenchmarkHashTableDistinctValues).
type HashTable struct {
	slots []htSlot // one backing array, reallocated only to change size
	mask  uint64
	n     int // live entries
	dead  int // tombstones

	vals  []htVal  // value entries, indexed by a slot's val; vals[0] is nil
	free  []uint32 // released vals entries, reused first
	last  uint32   // the entry made or shared last: the one-value fast path
	first [2]htVal // vals' initial backing, the sentinel and one value: a one-value table allocates nothing more
}

type htSlot struct {
	key     uint64
	version uint64
	val     uint32 // index into vals; 0 = nil value
	state   uint8  // 0 empty, 1 full, 2 tombstone
}

const (
	htEmpty uint8 = iota
	htFull
	htTomb
)

// htVal is one value entry and the number of live keys that hold it.
type htVal struct {
	b    []byte
	refs int
}

// sameSlice reports whether a and b are the same slice: equal data pointer,
// length and capacity.
func sameSlice(a, b []byte) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// NewHashTable returns an empty table.
func NewHashTable() *HashTable {
	const initial = 64
	h := &HashTable{slots: make([]htSlot, initial), mask: initial - 1}
	h.vals = h.first[:1]
	return h
}

// mix is a 64-bit finalizer (from splitmix64) giving good slot dispersion.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func (h *HashTable) probe(key uint64) (int, bool) {
	i := mix(key) & h.mask
	firstTomb := -1
	for {
		s := &h.slots[i]
		switch s.state {
		case htEmpty:
			if firstTomb >= 0 {
				return firstTomb, false
			}
			return int(i), false
		case htFull:
			if s.key == key {
				return int(i), true
			}
		case htTomb:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		}
		i = (i + 1) & h.mask
	}
}

// vacant returns the first slot at or after key's home that holds no entry.
// rebuild uses it to place entries into a fresh table, which has no
// tombstones and no duplicate keys, so no key comparison is needed.
func (h *HashTable) vacant(key uint64) int {
	i := mix(key) & h.mask
	for h.slots[i].state == htFull {
		i = (i + 1) & h.mask
	}
	return int(i)
}

// rebuild drops every tombstone, sizing the table from the live count alone:
// the smallest power of two, at least 64, that keeps live entries at or
// below half of it. An insert-only table therefore doubles as it always did,
// while a table full of tombstones over few live keys keeps its size (or
// shrinks) instead of doubling on every rebuild.
func (h *HashTable) rebuild() {
	size := uint64(64)
	for uint64(h.n+1)*2 > size {
		size *= 2
	}
	old := h.slots
	h.slots = make([]htSlot, size)
	h.mask = size - 1
	h.dead = 0
	for i := range old {
		if old[i].state == htFull {
			h.slots[h.vacant(old[i].key)] = old[i]
		}
	}
}

// intern returns an entry holding b, taking one reference on it: the last
// entry if it holds the same slice, else a new (or reused free) entry.
func (h *HashTable) intern(b []byte) uint32 {
	if b == nil {
		return 0
	}
	if r := h.last; r != 0 && sameSlice(h.vals[r].b, b) {
		h.vals[r].refs++
		return r
	}
	var r uint32
	if k := len(h.free); k > 0 {
		r = h.free[k-1]
		h.free = h.free[:k-1]
	} else {
		r = uint32(len(h.vals))
		h.vals = append(h.vals, htVal{})
	}
	h.vals[r] = htVal{b: b, refs: 1}
	h.last = r
	return r
}

// release drops one reference on entry r, freeing the entry with its last.
func (h *HashTable) release(r uint32) {
	if r == 0 {
		return
	}
	v := &h.vals[r]
	if v.refs--; v.refs > 0 {
		return
	}
	v.b = nil
	h.free = append(h.free, r)
	if h.last == r {
		h.last = 0
	}
}

// Get implements Engine.
func (h *HashTable) Get(key uint64) (Item, bool) {
	idx, ok := h.probe(key)
	if !ok {
		return Item{}, false
	}
	s := &h.slots[idx]
	return Item{Value: h.vals[s.val].b, Version: s.version}, true
}

// Put implements Engine.
func (h *HashTable) Put(key uint64, item Item) {
	if (h.n+h.dead+1)*4 >= len(h.slots)*3 { // load factor 0.75 incl tombstones
		h.rebuild()
	}
	idx, ok := h.probe(key)
	s := &h.slots[idx]
	if !ok {
		if s.state == htTomb {
			h.dead--
		}
		h.n++
		*s = htSlot{key: key, version: item.Version, val: h.intern(item.Value), state: htFull}
		return
	}
	// An overwrite that keeps the key's value leaves its entry alone.
	if old := s.val; !sameSlice(h.vals[old].b, item.Value) {
		s.val = h.intern(item.Value)
		h.release(old)
	}
	s.version = item.Version
}

// Delete implements Engine.
func (h *HashTable) Delete(key uint64) bool {
	idx, ok := h.probe(key)
	if !ok {
		return false
	}
	s := &h.slots[idx]
	h.release(s.val)
	*s = htSlot{state: htTomb}
	h.n--
	h.dead++
	return true
}

// Len implements Engine.
func (h *HashTable) Len() int { return h.n }

// Range implements Engine. Iteration order is unspecified.
func (h *HashTable) Range(fn func(key uint64, item Item) bool) {
	for i := range h.slots {
		if s := &h.slots[i]; s.state == htFull {
			if !fn(s.key, Item{Value: h.vals[s.val].b, Version: s.version}) {
				return
			}
		}
	}
}

// Name implements Engine.
func (h *HashTable) Name() string { return "hashtable" }

// OpCost implements Engine.
func (h *HashTable) OpCost() float64 { return 1.0 }
