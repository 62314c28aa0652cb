package simnet

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// TestNewFootprintLinearInNodes pins that a network's state grows with its
// node count, not with its square: the bytes New allocates for 320 nodes are
// at most 9x those for 40 (8x is linear). A per-pair table — per-destination
// send rings, a last-arrival matrix — makes the ratio 64x.
func TestNewFootprintLinearInNodes(t *testing.T) {
	allocated := func(nodes int) uint64 {
		cfg := Config{Nodes: nodes, OneWayLat: 500, Jitter: 150, Bandwidth: 100e9,
			QueuePairs: 400, MaxKind: 32}
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			eng := sim.New()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			New(eng, cfg)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	small, large := allocated(40), allocated(320)
	if large > 9*small {
		t.Fatalf("New allocates %d B at 320 nodes, %d B at 40: %.1fx, want <= 9x", large, small, float64(large)/float64(small))
	}
	t.Logf("New allocates %d B at 40 nodes, %d B at 320 (%.1fx)", small, large, float64(large)/float64(small))
}

// TestPendingRecordBytes pins the delivery record, which every message in
// flight occupies, at 72 B: the network pointer, the message and the pool
// link. The receive-side serialization time follows from the message size,
// so arrive recomputes it; stored, it made the record 80 B.
func TestPendingRecordBytes(t *testing.T) {
	if got := unsafe.Sizeof(delivery{}); got != 72 {
		t.Fatalf("delivery is %d B, want 72", got)
	}
}
