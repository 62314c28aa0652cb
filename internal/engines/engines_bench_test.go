package engines

import (
	"runtime"
	"testing"
)

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
