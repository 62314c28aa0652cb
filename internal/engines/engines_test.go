package engines

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
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
