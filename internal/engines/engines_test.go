package engines

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// allEngines returns a fresh instance of every engine.
func allEngines() []Engine {
	return []Engine{
		NewHashTable(),
		NewSkipList(),
		NewBTree(),
		NewBPlusTree(),
		NewMemcache(64 << 20),
	}
}

func item(v byte, ver uint64) Item {
	return Item{Value: []byte{v}, Version: ver}
}

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		e, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if e.Name() != name && !(name == "skiplist" && e.Name() == "map") {
			t.Fatalf("New(%q).Name() = %q", name, e.Name())
		}
	}
	// Known answers for every name New does, aliases included, without
	// building anything.
	for _, name := range append(Names(), "", "skiplist", "memcached", "wal") {
		if err := Known(name); err != nil {
			t.Fatalf("Known(%q): %v", name, err)
		}
	}
	_, newErr := New("nope")
	if knownErr := Known("nope"); newErr == nil || knownErr == nil || newErr.Error() != knownErr.Error() {
		t.Fatalf("unknown engine: New says %v, Known says %v; want the same error", newErr, knownErr)
	}
	if e, err := New(""); err != nil || e.Name() != "hashtable" {
		t.Fatalf("default engine = %v, %v", e, err)
	}
}

func TestOrderedFlag(t *testing.T) {
	if Ordered("hashtable") || Ordered("memcache") {
		t.Fatal("hash engines reported ordered")
	}
	for _, n := range []string{"map", "btree", "bplustree"} {
		if !Ordered(n) {
			t.Fatalf("%s should be ordered", n)
		}
	}
}

func TestBasicPutGetDelete(t *testing.T) {
	for _, e := range allEngines() {
		t.Run(e.Name(), func(t *testing.T) {
			if _, ok := e.Get(1); ok {
				t.Fatal("get on empty store returned a value")
			}
			e.Put(1, item('a', 1))
			e.Put(2, item('b', 2))
			got, ok := e.Get(1)
			if !ok || got.Value[0] != 'a' || got.Version != 1 {
				t.Fatalf("get(1) = %+v, %v", got, ok)
			}
			e.Put(1, item('c', 3)) // overwrite
			got, _ = e.Get(1)
			if got.Value[0] != 'c' || got.Version != 3 {
				t.Fatalf("overwrite failed: %+v", got)
			}
			if e.Len() != 2 {
				t.Fatalf("len = %d, want 2", e.Len())
			}
			if !e.Delete(1) {
				t.Fatal("delete(1) = false")
			}
			if e.Delete(1) {
				t.Fatal("double delete returned true")
			}
			if _, ok := e.Get(1); ok {
				t.Fatal("deleted key still visible")
			}
			if e.Len() != 1 {
				t.Fatalf("len after delete = %d, want 1", e.Len())
			}
		})
	}
}

func TestLargePopulation(t *testing.T) {
	const n = 5000
	for _, e := range allEngines() {
		t.Run(e.Name(), func(t *testing.T) {
			for i := uint64(0); i < n; i++ {
				e.Put(i*2654435761%100000, item(byte(i), i))
			}
			// Keys collide modulo the multiplier mapping; recompute the
			// expected state with a model map.
			model := map[uint64]Item{}
			for i := uint64(0); i < n; i++ {
				model[i*2654435761%100000] = item(byte(i), i)
			}
			if e.Len() != len(model) {
				t.Fatalf("len = %d, want %d", e.Len(), len(model))
			}
			for k, want := range model {
				got, ok := e.Get(k)
				if !ok || got.Version != want.Version {
					t.Fatalf("key %d: got %+v ok=%v want %+v", k, got, ok, want)
				}
			}
		})
	}
}

func TestOrderedIteration(t *testing.T) {
	for _, e := range []Engine{NewSkipList(), NewBTree(), NewBPlusTree()} {
		t.Run(e.Name(), func(t *testing.T) {
			keys := []uint64{42, 7, 99, 1, 65, 13, 0, 77, 50}
			for _, k := range keys {
				e.Put(k, item(byte(k), k))
			}
			var got []uint64
			e.Range(func(k uint64, _ Item) bool {
				got = append(got, k)
				return true
			})
			want := append([]uint64(nil), keys...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("range visited %d keys, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("order wrong: got %v want %v", got, want)
				}
			}
		})
	}
}

func TestRangeEarlyStop(t *testing.T) {
	for _, e := range allEngines() {
		for i := uint64(0); i < 100; i++ {
			e.Put(i, item(0, i))
		}
		count := 0
		e.Range(func(uint64, Item) bool {
			count++
			return count < 5
		})
		if count != 5 {
			t.Fatalf("%s: early stop visited %d, want 5", e.Name(), count)
		}
	}
}

func TestOpCostsOrdering(t *testing.T) {
	ht := NewHashTable()
	if ht.OpCost() != 1.0 {
		t.Fatalf("hashtable opcost = %g, want 1.0 baseline", ht.OpCost())
	}
	for _, e := range allEngines()[1:] {
		if e.OpCost() <= 1.0 {
			t.Fatalf("%s opcost %g should exceed hashtable baseline", e.Name(), e.OpCost())
		}
	}
}

// opSeq is a randomized op sequence applied to both an engine and a model
// map; used by the property tests.
type opSeq struct {
	Ops []struct {
		Kind byte // 0 put, 1 delete, 2 get
		Key  uint16
		Val  byte
	}
}

func applyOps(e Engine, seq opSeq) bool {
	model := map[uint64]Item{}
	ver := uint64(0)
	for _, op := range seq.Ops {
		k := uint64(op.Key % 512) // force collisions
		switch op.Kind % 3 {
		case 0:
			ver++
			it := Item{Value: []byte{op.Val}, Version: ver}
			e.Put(k, it)
			model[k] = it
		case 1:
			got := e.Delete(k)
			_, want := model[k]
			if got != want {
				return false
			}
			delete(model, k)
		case 2:
			got, ok := e.Get(k)
			want, wok := model[k]
			if ok != wok {
				return false
			}
			if ok && (got.Version != want.Version || got.Value[0] != want.Value[0]) {
				return false
			}
		}
	}
	if e.Len() != len(model) {
		return false
	}
	// Final full-state check.
	for k, want := range model {
		got, ok := e.Get(k)
		if !ok || got.Version != want.Version {
			return false
		}
	}
	// Range must visit exactly the model's keys.
	seen := map[uint64]bool{}
	e.Range(func(k uint64, it Item) bool {
		if seen[k] {
			return false // duplicate visit
		}
		seen[k] = true
		return true
	})
	return len(seen) == len(model)
}

func TestEngineMatchesModelProperty(t *testing.T) {
	makers := map[string]func() Engine{
		"hashtable": func() Engine { return NewHashTable() },
		"skiplist":  func() Engine { return NewSkipList() },
		"btree":     func() Engine { return NewBTree() },
		"bplustree": func() Engine { return NewBPlusTree() },
		"memcache":  func() Engine { return NewMemcache(64 << 20) },
	}
	for name, mk := range makers {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seq opSeq) bool { return applyOps(mk(), seq) }
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBTreeInvariantsUnderChurn(t *testing.T) {
	tr := NewBTree()
	rng := uint64(12345)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	live := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		k := next() % 3000
		if next()%3 == 0 {
			tr.Delete(k)
			delete(live, k)
		} else {
			tr.Put(k, item(byte(k), k))
			live[k] = true
		}
		if i%500 == 0 {
			if msg := tr.checkInvariants(); msg != "" {
				t.Fatalf("iteration %d: %s", i, msg)
			}
		}
	}
	if msg := tr.checkInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if tr.Len() != len(live) {
		t.Fatalf("len = %d, want %d", tr.Len(), len(live))
	}
	if tr.depth() < 2 {
		t.Fatalf("tree suspiciously shallow: depth %d with %d keys", tr.depth(), tr.Len())
	}
}

func TestBTreeSequentialAndReverse(t *testing.T) {
	tr := NewBTree()
	for i := uint64(0); i < 2000; i++ {
		tr.Put(i, item(0, i))
	}
	if msg := tr.checkInvariants(); msg != "" {
		t.Fatalf("after ascending inserts: %s", msg)
	}
	for i := int64(1999); i >= 0; i-- {
		if !tr.Delete(uint64(i)) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("len = %d after deleting all", tr.Len())
	}
}

func TestBPlusTreeLeafChainConsistent(t *testing.T) {
	tr := NewBPlusTree()
	for i := uint64(0); i < 5000; i++ {
		tr.Put(i*7%5000, item(0, i))
	}
	for i := uint64(0); i < 2500; i++ {
		tr.Delete(i * 2 % 5000)
	}
	var prev uint64
	first := true
	count := 0
	tr.Range(func(k uint64, _ Item) bool {
		if !first && k <= prev {
			t.Fatalf("leaf chain out of order: %d after %d", k, prev)
		}
		prev, first = k, false
		count++
		return true
	})
	if count != tr.Len() {
		t.Fatalf("range visited %d, len = %d", count, tr.Len())
	}
}

func TestMemcacheEviction(t *testing.T) {
	m := NewMemcache(16 << 10) // 16 KiB: small enough to evict
	val := make([]byte, 100)
	for i := uint64(0); i < 1000; i++ {
		m.Put(i, Item{Value: val, Version: i})
	}
	if m.Evictions() == 0 {
		t.Fatal("no evictions under memory pressure")
	}
	if m.UsedBytes() > 16<<10 {
		t.Fatalf("used %d exceeds budget", m.UsedBytes())
	}
	// Recently inserted keys should still be present.
	if _, ok := m.Get(999); !ok {
		t.Fatal("most recent key evicted")
	}
	// The very first key should be long gone.
	if _, ok := m.Get(0); ok {
		t.Fatal("oldest key survived heavy eviction")
	}
}

func TestMemcacheLRUOrderRespectsGets(t *testing.T) {
	m := NewMemcache(1 << 20)
	for i := uint64(0); i < 10; i++ {
		m.Put(i, item(byte(i), i))
	}
	m.Get(0) // refresh key 0 to MRU
	var first uint64 = 999
	m.Range(func(k uint64, _ Item) bool {
		first = k
		return false
	})
	if first != 0 {
		t.Fatalf("MRU = %d, want 0 after Get(0)", first)
	}
}

func TestMemcacheHitRate(t *testing.T) {
	m := NewMemcache(1 << 20)
	m.Put(1, item('x', 1))
	m.Get(1)
	m.Get(2)
	if got := m.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %g, want 0.5", got)
	}
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

func TestSkipListDeleteLevels(t *testing.T) {
	s := NewSkipList()
	for i := uint64(0); i < 1000; i++ {
		s.Put(i, item(0, i))
	}
	for i := uint64(0); i < 1000; i++ {
		if !s.Delete(i) {
			t.Fatalf("delete %d failed", i)
		}
	}
	if s.Len() != 0 || s.level != 1 {
		t.Fatalf("after emptying: len=%d level=%d", s.Len(), s.level)
	}
}

func ExampleEngine() {
	e, _ := New("btree")
	e.Put(10, Item{Value: []byte("ten"), Version: 1})
	e.Put(5, Item{Value: []byte("five"), Version: 2})
	e.Range(func(k uint64, it Item) bool {
		fmt.Printf("%d=%s\n", k, it.Value)
		return true
	})
	// Output:
	// 5=five
	// 10=ten
}

func TestWALStoreBasics(t *testing.T) {
	w := NewWALStore()
	w.Put(1, item('a', 1))
	w.Put(2, item('b', 2))
	w.Put(1, item('c', 3)) // supersede
	if got, ok := w.Get(1); !ok || got.Version != 3 {
		t.Fatalf("get(1) = %+v, %v", got, ok)
	}
	if w.Len() != 2 {
		t.Fatalf("len = %d, want 2", w.Len())
	}
	if !w.Delete(1) || w.Delete(1) {
		t.Fatal("delete semantics wrong")
	}
	if _, ok := w.Get(1); ok {
		t.Fatal("deleted key visible")
	}
	if w.GarbageRatio() <= 0 {
		t.Fatal("superseded records should count as garbage")
	}
}

func TestWALStoreCompactionTriggersAndPreservesData(t *testing.T) {
	w := NewWALStore()
	// Overwrite a small key set many times: most of the log is garbage.
	for i := 0; i < 60000; i++ {
		k := uint64(i % 100)
		w.Put(k, item(byte(i), uint64(i)))
	}
	if w.Compactions() == 0 {
		t.Fatal("no compaction despite heavy overwriting")
	}
	if w.Len() != 100 {
		t.Fatalf("len = %d, want 100", w.Len())
	}
	for k := uint64(0); k < 100; k++ {
		it, ok := w.Get(k)
		if !ok {
			t.Fatalf("key %d lost in compaction", k)
		}
		want := uint64(59900 + int(k)) // last write of each key
		if it.Version != want {
			t.Fatalf("key %d version = %d, want %d", k, it.Version, want)
		}
	}
	// Between compactions the active segment may be garbage-heavy, but the
	// total log must stay bounded: compaction caps it near one segment of
	// fresh appends plus the live set.
	if total := w.live + w.dead; total > 2*w.segLimit {
		t.Fatalf("log grew unbounded: %d records for %d live keys", total, w.Len())
	}
}

func TestWALStoreMatchesModelProperty(t *testing.T) {
	f := func(seq opSeq) bool { return applyOps(NewWALStore(), seq) }
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestWALStoreRangeDeterministicAppendOrder(t *testing.T) {
	w := NewWALStore()
	keys := []uint64{5, 3, 9, 3, 7} // 3 overwritten: survives at second position
	for i, k := range keys {
		w.Put(k, item(byte(i), uint64(i)))
	}
	var got []uint64
	w.Range(func(k uint64, _ Item) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{5, 9, 3, 7}
	if len(got) != len(want) {
		t.Fatalf("range = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range order = %v, want append order %v", got, want)
		}
	}
}
