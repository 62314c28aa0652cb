package engines

import (
	"fmt"
	"runtime"
	"testing"
)

// benchEngines mirrors the application set of the paper's Section 7.
func benchEngines() map[string]func() Engine {
	return map[string]func() Engine{
		"hashtable": func() Engine { return NewHashTable() },
		"skiplist":  func() Engine { return NewSkipList() },
		"btree":     func() Engine { return NewBTree() },
		"bplustree": func() Engine { return NewBPlusTree() },
		"memcache":  func() Engine { return NewMemcache(256 << 20) },
		"walstore":  func() Engine { return NewWALStore() },
	}
}

func BenchmarkEnginePut(b *testing.B) {
	for name, mk := range benchEngines() {
		b.Run(name, func(b *testing.B) {
			e := mk()
			val := Item{Value: make([]byte, 128)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				val.Version = uint64(i)
				e.Put(uint64(i)%65536, val)
			}
		})
	}
}

func BenchmarkEngineGet(b *testing.B) {
	for name, mk := range benchEngines() {
		b.Run(name, func(b *testing.B) {
			e := mk()
			val := Item{Value: make([]byte, 128)}
			for i := uint64(0); i < 65536; i++ {
				e.Put(i, val)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Get(uint64(i) * 2654435761 % 65536)
			}
		})
	}
}

func BenchmarkEngineMixed(b *testing.B) {
	for name, mk := range benchEngines() {
		b.Run(name, func(b *testing.B) {
			e := mk()
			val := Item{Value: make([]byte, 128)}
			for i := uint64(0); i < 16384; i++ {
				e.Put(i, val)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(i) * 2654435761 % 16384
				if i%2 == 0 {
					e.Get(k)
				} else {
					val.Version = uint64(i)
					e.Put(k, val)
				}
			}
		})
	}
}

func BenchmarkEngineOrderedScan(b *testing.B) {
	for _, name := range []string{"skiplist", "btree", "bplustree"} {
		mk := benchEngines()[name]
		b.Run(name, func(b *testing.B) {
			e := mk()
			val := Item{Value: make([]byte, 128)}
			for i := uint64(0); i < 16384; i++ {
				e.Put(i, val)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				e.Range(func(uint64, Item) bool {
					n++
					return n < 100
				})
			}
		})
	}
}

// BenchmarkHashTableDistinctValues measures the hash table on the traffic
// its interning is not tuned for: every key holds its own value. "fill"
// builds a 16384-key table and reports the heap it retains per key
// (values excluded: they are allocated up front); "mixed" alternates Get
// with an overwrite that swaps the key to a different value.
func BenchmarkHashTableDistinctValues(b *testing.B) {
	const n = 16384
	backing := make([]byte, 2*n*8)
	vals := make([][]byte, 2*n)
	for i := range vals {
		vals[i] = backing[i*8 : i*8+8 : i*8+8]
	}
	fill := func() *HashTable {
		h := NewHashTable()
		for k := uint64(0); k < n; k++ {
			h.Put(k, Item{Value: vals[k], Version: k})
		}
		return h
	}
	b.Run("fill", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fill()
		}
		b.StopTimer()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h := fill()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(h)
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/n, "retained-B/key")
	})
	b.Run("mixed", func(b *testing.B) {
		h := fill()
		side := make([]uint64, n) // 0 or n: which of its two values key k holds
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := uint64(i) * 2654435761 % n
			if i%2 == 0 {
				h.Get(k)
			} else {
				side[k] ^= n
				h.Put(k, Item{Value: vals[k+side[k]], Version: uint64(i)})
			}
		}
	})
}

func ExampleNew() {
	e, err := New("bplustree")
	if err != nil {
		panic(err)
	}
	e.Put(1, Item{Value: []byte("v"), Version: 1})
	it, ok := e.Get(1)
	fmt.Println(ok, string(it.Value))
	// Output: true v
}
