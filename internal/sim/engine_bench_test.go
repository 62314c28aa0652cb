package sim

import "testing"

// BenchmarkEngineScheduleRun measures the schedule+dispatch hot path every
// simulated message and device operation rides on: push into the pending
// set, pop in timestamp order, run. Storage is Reserved up front, so a
// steady-state cycle should not allocate.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := New()
	e.Reserve(1024)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(int64(i%64), fn)
		if e.Pending() >= 512 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// BenchmarkEngineDeepPending holds a 10k-event backlog while scheduling and
// dispatching — the regime where a heap pays O(log n) sifts on both sides
// and the wheel stays O(1). This is the shape of the paper's
// high-client-count cells (thousands of in-flight client ops per node).
func BenchmarkEngineDeepPending(b *testing.B) {
	e := New()
	e.Reserve(10001)
	fn := func() {}
	for i := 0; i < 10000; i++ {
		e.Schedule(1+int64(i%8000), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(8000, fn)
		e.Step()
	}
	b.StopTimer()
	e.RunAll()
}

// BenchmarkPoolContention drives bursts deep enough to queue behind a small
// pool — the workload that made the old mid-slice-removal dispatch
// quadratic. Reported time is per enqueue+complete of one job.
func BenchmarkPoolContention(b *testing.B) {
	e := New()
	e.Reserve(1024)
	p := NewPool(e, 8)
	fn := func() {}
	const burst = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += burst {
		for j := 0; j < burst; j++ {
			p.AcquireEvent(int64(j%5+1), Func(fn), 0)
		}
		e.RunAll()
	}
}

func TestEngineReserve(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	e.Reserve(128)
	if e.Pending() != 1 {
		t.Fatalf("Reserve dropped pending events: %d", e.Pending())
	}
	e.Reserve(2) // smaller than current capacity: no-op
	ran := false
	e.Schedule(10, func() { ran = true })
	e.RunAll()
	if !ran || e.Processed() != 2 {
		t.Fatalf("events lost across Reserve: ran=%v processed=%d", ran, e.Processed())
	}
}

// TestEngineScheduleRunAllocs locks in the zero-allocation steady state of
// the scheduler: with a Reserved heap, scheduling an existing closure and
// draining the queue must not allocate at all.
func TestEngineScheduleRunAllocs(t *testing.T) {
	e := New()
	e.Reserve(256)
	fn := func() {}
	allocs := testing.AllocsPerRun(500, func() {
		for i := 0; i < 16; i++ {
			e.Schedule(int64(i%4), fn)
		}
		e.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("schedule+run allocated %.2f per cycle, want 0", allocs)
	}
}
