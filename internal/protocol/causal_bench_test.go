package protocol

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// BenchmarkCausalReorder measures the Causal reorder buffer on a 5-writer
// stream broadcast to 4 receivers: each update travels in one box shared by
// the receivers, as a broadcast's does. Every receiver takes the stream in an
// order of its own with each writer's first write held back to the end, so
// everything else buffers — at all four receivers at once — and then drains
// in one cascade. It reports host ns per buffered update (filing, draining
// and applying; the lazy persists the applies schedule run off the clock) and
// the bytes the four buffers retain per buffered update at their peak, from a
// cold cluster, boxes included but spent boxes not: a box back in the pool is
// the next send's.
func BenchmarkCausalReorder(b *testing.B) {
	const writers, receivers, updates = 5, 4, 640
	size := writers + receivers
	rng := rand.New(rand.NewSource(1))
	stream := causalStream(rng, size, writers, updates)
	orders := make([][]int, receivers)
	for r := range orders {
		var early, late []int
		for _, i := range rng.Perm(updates) {
			if u := stream[i]; u.hist[u.st.Node()] == 1 {
				late = append(late, i)
			} else {
				early = append(early, i)
			}
		}
		orders[r] = append(early, late...)
	}
	buffered := receivers * (updates - writers)

	setup := func() *testCluster {
		tc := newTestCluster(mdl(core.Causal, core.EventualP), size, nil)
		for _, r := range tc.reps[1:] {
			r.arena = tc.reps[0].arena // one arena, as a sequential cluster has
		}
		return tc
	}
	// deliver hands every receiver the first n updates of its order, each in
	// its box, and drops the receiver's reference as OnEvent does.
	deliver := func(tc *testCluster, boxes []*payload, n int) {
		for r := range receivers {
			rep := tc.reps[writers+r]
			for _, i := range orders[r][:n] {
				rep.dispatch(boxes[i].Stamp.Node(), boxes[i])
				rep.release(boxes[i])
			}
		}
	}
	// box boxes round n of the stream: the same writes, continuing the
	// writers' counts and stamps where round n-1 left them.
	total := make([]uint64, size)
	for _, u := range stream {
		total[u.st.Node()]++
	}
	hist := make([]uint64, size)
	box := func(tc *testCluster, n int) []*payload {
		boxes := make([]*payload, updates)
		for i, u := range stream {
			for w, v := range u.hist {
				hist[w] = v + uint64(n)*total[w]
			}
			st := MakeStamp(uint64(n*updates)+u.st.TS(), u.st.Node())
			boxes[i] = tc.reps[0].arena.boxes.box(payload{Kind: MsgUPD, Key: u.key % 64, Stamp: st, Cauhist: hist}, receivers)
		}
		return boxes
	}

	// Bytes per buffered update: what a cold cluster retains once the four
	// buffers are full, boxes included, less the spent boxes its pool holds
	// for the next sends to reuse.
	tc := setup()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	boxes := box(tc, 0)
	deliver(tc, boxes, updates-writers)
	boxes = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	if n := tc.reps[writers].BufferLen() * receivers; n != buffered {
		b.Fatalf("%d updates buffered, want %d", n, buffered)
	}
	spare := tc.reps[0].arena.SpareBoxes() * int(unsafe.Sizeof(payload{})+uintptr(size)*8)
	retained := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)-int64(spare)) / float64(buffered)
	runtime.KeepAlive(tc)

	tc = setup()
	b.ResetTimer()
	for n := range b.N {
		b.StopTimer()
		boxes := box(tc, n)
		b.StartTimer()
		deliver(tc, boxes, updates)
		b.StopTimer()
		tc.run()
		if tc.reps[writers].BufferLen() != 0 {
			b.Fatalf("buffer not drained: %d", tc.reps[writers].BufferLen())
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*buffered), "ns/upd")
	b.ReportMetric(retained, "B/upd")
}
