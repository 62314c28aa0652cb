package engines

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func item(v byte, ver uint64) Item {
	return Item{Value: []byte{v}, Version: ver}
}

// profileCases is the name table the profile tests check ProfileOf
// against: every listed name, "" (the hashtable), an unknown name and the
// retired aliases skiplist, memcached and wal.
var profileCases = []struct {
	name    string
	known   bool
	ordered bool
}{
	{"", true, false},
	{"memcache", true, false},
	{"hashtable", true, false},
	{"map", true, true},
	{"btree", true, true},
	{"bplustree", true, true},
	{"walstore", true, false},
	{"nope", false, false},
	{"skiplist", false, false},
	{"memcached", false, false},
	{"wal", false, false},
}

// knownProfiles returns the profile of every known name in profileCases.
func knownProfiles(t *testing.T) map[string]Profile {
	t.Helper()
	out := map[string]Profile{}
	for _, tc := range profileCases {
		if !tc.known {
			continue
		}
		p, err := ProfileOf(tc.name)
		if err != nil {
			t.Fatalf("ProfileOf(%q): %v", tc.name, err)
		}
		out[tc.name] = p
	}
	return out
}

// TestNewByName checks name resolution: every Names() entry resolves, ""
// is the hashtable, and any other name, the retired aliases included,
// fails with an error that names it.
func TestNewByName(t *testing.T) {
	listed := map[string]bool{}
	for _, name := range Names() {
		listed[name] = true
	}
	for _, tc := range profileCases {
		p, err := ProfileOf(tc.name)
		switch {
		case !tc.known:
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.name)) {
				t.Errorf("ProfileOf(%q) = %+v, %v; want an error naming it", tc.name, p, err)
			}
		case err != nil:
			t.Errorf("ProfileOf(%q): %v", tc.name, err)
		default:
			delete(listed, tc.name)
		}
	}
	for name := range listed {
		t.Errorf("Names() lists %q, which the table does not cover", name)
	}
	if got := knownProfiles(t); got[""] != got["hashtable"] {
		t.Errorf(`ProfileOf("") = %+v, want the hashtable's %+v`, got[""], got["hashtable"])
	}
}

// TestOrderedFlag checks that exactly the map and the two trees scan in
// key order.
func TestOrderedFlag(t *testing.T) {
	got := knownProfiles(t)
	for _, tc := range profileCases {
		if p, ok := got[tc.name]; ok && p.Ordered != tc.ordered {
			t.Errorf("%q: Ordered = %v, want %v", tc.name, p.Ordered, tc.ordered)
		}
	}
}

// TestOpCostsOrdering checks that the hashtable is the 1.0 baseline and
// every other engine costs more per operation.
func TestOpCostsOrdering(t *testing.T) {
	got := knownProfiles(t)
	if hash := got["hashtable"]; hash.OpCost != 1.0 {
		t.Fatalf("hashtable OpCost = %g, want the 1.0 baseline", hash.OpCost)
	}
	for name, p := range got {
		if name != "" && name != "hashtable" && p.OpCost <= 1.0 {
			t.Errorf("%q: OpCost %g, want above the hashtable baseline", name, p.OpCost)
		}
	}
}

// TestProfileOfMatchesNew checks the default engine's profile against the
// one engine the package still builds: "" names the hashtable, and its
// profile is unordered exactly as a HashTable's Range does not visit keys
// in ascending order.
func TestProfileOfMatchesNew(t *testing.T) {
	p := knownProfiles(t)[""]
	h := NewHashTable()
	for k := uint64(0); k < 64; k++ {
		h.Put((k*37)%64, item('x', k))
	}
	var keys []uint64
	h.Range(func(k uint64, _ Item) bool { keys = append(keys, k); return true })
	if inOrder := slices.IsSorted(keys); inOrder != p.Ordered {
		t.Errorf("default profile Ordered %v, HashTable Range in key order %v", p.Ordered, inOrder)
	}
}

func TestBasicPutGetDelete(t *testing.T) {
	t.Run("hashtable", func(t *testing.T) {
		h := NewHashTable()
		if _, ok := h.Get(1); ok {
			t.Fatal("get on empty store returned a value")
		}
		h.Put(1, item('a', 1))
		h.Put(2, item('b', 2))
		got, ok := h.Get(1)
		if !ok || got.Value[0] != 'a' || got.Version != 1 {
			t.Fatalf("get(1) = %+v, %v", got, ok)
		}
		h.Put(1, item('c', 3)) // overwrite
		got, _ = h.Get(1)
		if got.Value[0] != 'c' || got.Version != 3 {
			t.Fatalf("overwrite failed: %+v", got)
		}
		if h.Len() != 2 {
			t.Fatalf("len = %d, want 2", h.Len())
		}
		if !h.Delete(1) {
			t.Fatal("delete(1) = false")
		}
		if h.Delete(1) {
			t.Fatal("double delete returned true")
		}
		if _, ok := h.Get(1); ok {
			t.Fatal("deleted key still visible")
		}
		if h.Len() != 1 {
			t.Fatalf("len after delete = %d, want 1", h.Len())
		}
	})
}

func TestLargePopulation(t *testing.T) {
	t.Run("hashtable", func(t *testing.T) {
		const n = 5000
		h := NewHashTable()
		for i := uint64(0); i < n; i++ {
			h.Put(i*2654435761%100000, item(byte(i), i))
		}
		// Keys collide modulo the multiplier mapping; recompute the expected
		// state with a model map.
		model := map[uint64]Item{}
		for i := uint64(0); i < n; i++ {
			model[i*2654435761%100000] = item(byte(i), i)
		}
		if h.Len() != len(model) {
			t.Fatalf("len = %d, want %d", h.Len(), len(model))
		}
		for k, want := range model {
			got, ok := h.Get(k)
			if !ok || got.Version != want.Version {
				t.Fatalf("key %d: got %+v ok=%v want %+v", k, got, ok, want)
			}
		}
	})
}

func TestRangeEarlyStop(t *testing.T) {
	h := NewHashTable()
	for i := uint64(0); i < 100; i++ {
		h.Put(i, item(0, i))
	}
	count := 0
	h.Range(func(uint64, Item) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d, want 5", count)
	}
}

// opSeq is a randomized op sequence applied to both the hash table and a
// model map; used by the property test.
type opSeq struct {
	Ops []struct {
		Kind byte // 0 put, 1 delete, 2 get
		Key  uint16
		Val  byte
	}
}

func applyOps(h *HashTable, seq opSeq) bool {
	model := map[uint64]Item{}
	ver := uint64(0)
	for _, op := range seq.Ops {
		k := uint64(op.Key % 512) // force collisions
		switch op.Kind % 3 {
		case 0:
			ver++
			it := Item{Value: []byte{op.Val}, Version: ver}
			h.Put(k, it)
			model[k] = it
		case 1:
			got := h.Delete(k)
			_, want := model[k]
			if got != want {
				return false
			}
			delete(model, k)
		case 2:
			got, ok := h.Get(k)
			want, wok := model[k]
			if ok != wok {
				return false
			}
			if ok && (got.Version != want.Version || got.Value[0] != want.Value[0]) {
				return false
			}
		}
	}
	if h.Len() != len(model) {
		return false
	}
	// Final full-state check.
	for k, want := range model {
		got, ok := h.Get(k)
		if !ok || got.Version != want.Version {
			return false
		}
	}
	// Range must visit exactly the model's keys.
	seen := map[uint64]bool{}
	h.Range(func(k uint64, it Item) bool {
		if seen[k] {
			return false // duplicate visit
		}
		seen[k] = true
		return true
	})
	return len(seen) == len(model)
}

func TestEngineMatchesModelProperty(t *testing.T) {
	t.Run("hashtable", func(t *testing.T) {
		f := func(seq opSeq) bool { return applyOps(NewHashTable(), seq) }
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestHashTableTombstoneReuse(t *testing.T) {
	h := NewHashTable()
	for i := uint64(0); i < 100; i++ {
		h.Put(i, item(0, i))
	}
	for i := uint64(0); i < 100; i++ {
		h.Delete(i)
	}
	for i := uint64(0); i < 100; i++ {
		h.Put(i, item(1, i+100))
	}
	if h.Len() != 100 {
		t.Fatalf("len = %d, want 100", h.Len())
	}
	for i := uint64(0); i < 100; i++ {
		got, ok := h.Get(i)
		if !ok || got.Version != i+100 {
			t.Fatalf("key %d: %+v, %v", i, got, ok)
		}
	}
}

func TestHashTableGrowthPreservesData(t *testing.T) {
	h := NewHashTable()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		h.Put(i, item(byte(i), i))
	}
	if h.Len() != n {
		t.Fatalf("len = %d, want %d", h.Len(), n)
	}
	for i := uint64(0); i < n; i += 97 {
		if got, ok := h.Get(i); !ok || got.Version != i {
			t.Fatalf("key %d lost after growth", i)
		}
	}
}

func TestHashTableSlotSize(t *testing.T) {
	if sz := unsafe.Sizeof(htSlot{}); sz > 24 {
		t.Fatalf("htSlot is %d bytes, want <= 24 (key, version, value ref, state)", sz)
	}
}

// sameHeader reports whether a and b are the same slice: data pointer,
// length and capacity.
func sameHeader(a, b []byte) bool {
	return unsafe.SliceData(a) == unsafe.SliceData(b) && len(a) == len(b) && cap(a) == cap(b)
}

// TestHashTableGetReturnsStoredSlice pins that the value entries hand back
// exactly the slice Put stored: slices over one backing array that
// differ only in length or capacity are distinct values, and a nil value
// stays nil while an empty non-nil one stays non-nil.
func TestHashTableGetReturnsStoredSlice(t *testing.T) {
	backing := make([]byte, 16)
	vals := [][]byte{backing, backing[:8], backing[:8:8], backing[4:12], nil, {}, []byte("x"), backing}
	h := NewHashTable()
	for i, v := range vals {
		h.Put(uint64(i), Item{Value: v, Version: uint64(i)})
	}
	for i, v := range vals {
		got, ok := h.Get(uint64(i))
		if !ok || got.Version != uint64(i) || !sameHeader(got.Value, v) || (got.Value == nil) != (v == nil) {
			t.Fatalf("key %d: got %p/%d/%d ok=%v, want the stored %p/%d/%d",
				i, got.Value, len(got.Value), cap(got.Value), ok, v, len(v), cap(v))
		}
	}
	h.Range(func(k uint64, it Item) bool {
		if !sameHeader(it.Value, vals[k]) {
			t.Fatalf("Range key %d: not the stored slice", k)
		}
		return true
	})
}

// TestHashTableSharedValueHeldOnce pins the layout a replica's store relies
// on: a table whose every Put stores one shared slice holds one value entry,
// however many keys and overwrites it sees, and making that entry allocates
// nothing beyond the table itself.
func TestHashTableSharedValueHeldOnce(t *testing.T) {
	shared := make([]byte, 64)
	h := NewHashTable()
	for i := uint64(0); i < 5000; i++ {
		h.Put(i%2000, Item{Value: shared, Version: i})
	}
	if len(h.vals) != 2 || h.vals[1].refs != 2000 {
		t.Fatalf("%d value entries (refs %d); want one entry held by 2000 keys",
			len(h.vals)-1, h.vals[len(h.vals)-1].refs)
	}
	// 40 keys stay below the first rebuild: the struct and its 64 slots are
	// the only allocations.
	allocs := testing.AllocsPerRun(10, func() {
		h := NewHashTable()
		for k := uint64(0); k < 40; k++ {
			h.Put(k, Item{Value: shared, Version: k})
		}
	})
	if allocs != 2 {
		t.Fatalf("a new one-value table of 40 keys costs %.0f allocations, want 2 (struct and slots)", allocs)
	}
}

// TestHashTableInternedWithinLiveKeys runs a randomized Put / overwrite /
// Delete script over distinct values against a model map: every Get returns
// the model's slice, and the live value entries never outnumber the live
// keys (overwrites and deletes release what they replace).
func TestHashTableInternedWithinLiveKeys(t *testing.T) {
	h := NewHashTable()
	model := map[uint64][]byte{}
	rng := uint64(2024)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for i := 0; i < 30000; i++ {
		k := next() % 300
		switch next() % 4 {
		case 0:
			if h.Delete(k) != (model[k] != nil) {
				t.Fatalf("step %d: Delete(%d) disagrees with the model", i, k)
			}
			delete(model, k)
		case 1: // store a value another live key holds
			if v := model[next()%300]; v != nil {
				h.Put(k, Item{Value: v})
				model[k] = v
			}
		default:
			v := make([]byte, 1+next()%4)
			h.Put(k, Item{Value: v})
			model[k] = v
		}
		live := len(h.vals) - 1 - len(h.free) // entry 0 is the nil sentinel
		if live > h.Len() {
			t.Fatalf("step %d: %d value entries for %d live keys", i, live, h.Len())
		}
	}
	if h.Len() != len(model) {
		t.Fatalf("len = %d, want %d", h.Len(), len(model))
	}
	for k, v := range model {
		if got, ok := h.Get(k); !ok || !sameHeader(got.Value, v) {
			t.Fatalf("key %d: not the stored slice", k)
		}
	}
}

// TestHashTableChurnBounded is the regression test for a table that only
// ever doubled: a million Put/Delete pairs over 50 live keys filled it with
// tombstones and ended at 524,288 slots. Rebuilds now size from the live
// count, so the table stays at its 128-slot size.
func TestHashTableChurnBounded(t *testing.T) {
	h := NewHashTable()
	v := []byte("v")
	for k := uint64(0); k < 50; k++ {
		h.Put(k, Item{Value: v, Version: k})
	}
	for i := uint64(0); i < 1_000_000; i++ {
		k := 1000 + i
		h.Put(k, Item{Value: v, Version: k})
		h.Delete(k)
	}
	if len(h.slots) > 128 {
		t.Fatalf("table holds %d slots for %d live keys after churn, want <= 128", len(h.slots), h.Len())
	}
	seen := 0
	h.Range(func(k uint64, it Item) bool {
		seen++
		if k >= 50 || it.Version != k {
			t.Fatalf("Range visited key %d version %d after churn", k, it.Version)
		}
		return true
	})
	for k := uint64(0); k < 50; k++ {
		if it, ok := h.Get(k); !ok || it.Version != k {
			t.Fatalf("key %d lost across same-size rebuilds", k)
		}
	}
	if seen != 50 || h.Len() != 50 {
		t.Fatalf("Range visited %d keys, Len %d; want 50", seen, h.Len())
	}
}

// TestHashTableRebuildKeepsEveryKey churns random keys at up to 56 live in
// 128 slots, so tombstones force a same-size rebuild every few dozen ops and
// clusters often wrap past the table's end. After every op each model key
// must read back its version and nothing else may be live.
func TestHashTableRebuildKeepsEveryKey(t *testing.T) {
	h := NewHashTable()
	model := map[uint64]uint64{}
	var live []uint64
	rng := uint64(99)
	for i := uint64(1); i <= 20000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		pick := int(rng>>8) % max(len(live), 1)
		switch op := rng % 4; {
		case len(live) >= 56 || (op == 0 && len(live) > 0):
			k := live[pick]
			live[pick] = live[len(live)-1]
			live = live[:len(live)-1]
			h.Delete(k)
			delete(model, k)
		case op == 1 && len(live) > 0:
			h.Put(live[pick], Item{Version: i})
			model[live[pick]] = i
		default:
			k := rng >> 20
			if _, ok := model[k]; !ok {
				live = append(live, k)
			}
			h.Put(k, Item{Version: i})
			model[k] = i
		}
		if h.Len() != len(model) {
			t.Fatalf("op %d: len %d, want %d", i, h.Len(), len(model))
		}
		for k, v := range model {
			if it, ok := h.Get(k); !ok || it.Version != v {
				t.Fatalf("op %d: key %d reads %+v ok=%v, want version %d", i, k, it, ok, v)
			}
		}
	}
}

// TestHashTableOpAllocFree replays the repo benchmark's
// engines.hashtable_op_ns loop (one Put and one Get over a 2000-key store,
// every value the same slice) and requires zero allocations per op.
func TestHashTableOpAllocFree(t *testing.T) {
	ht := NewHashTable()
	val := make([]byte, 128)
	for k := uint64(0); k < 2000; k++ {
		ht.Put(k, Item{Value: val})
	}
	var i, sink uint64
	allocs := testing.AllocsPerRun(10_000, func() {
		k := i * 2654435761 % 2000
		ht.Put(k, Item{Value: val, Version: i})
		it, _ := ht.Get((k + 1) % 2000)
		sink += it.Version
		i++
	})
	if allocs != 0 {
		t.Fatalf("%.2f allocations per Put+Get, want 0", allocs)
	}
}
