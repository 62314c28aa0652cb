package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsInTimestampOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.RunAll()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.RunAll()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var hits []int64
	e.Schedule(10, func() {
		hits = append(hits, e.Now())
		e.Schedule(5, func() { hits = append(hits, e.Now()) })
	})
	e.RunAll()
	if len(hits) != 2 || hits[0] != 10 || hits[1] != 15 {
		t.Fatalf("nested scheduling wrong: %v", hits)
	}
}

func TestEngineRunUntilStopsClock(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(100, func() { ran = true })
	got := e.Run(50)
	if got != 50 || e.Now() != 50 {
		t.Fatalf("Run(50) = %d, now = %d, want 50", got, e.Now())
	}
	if ran {
		t.Fatal("event at t=100 ran during Run(50)")
	}
	e.Run(100)
	if !ran {
		t.Fatal("event at t=100 did not run during Run(100)")
	}
}

func TestEngineRunInclusiveOfBoundary(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(50, func() { ran = true })
	e.Run(50)
	if !ran {
		t.Fatal("event exactly at the until boundary should run")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		e.Schedule(-5, func() {
			if e.Now() != 10 {
				t.Errorf("negative delay ran at %d, want 10", e.Now())
			}
		})
	})
	e.RunAll()
}

func TestEngineAtPastClamped(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		e.At(3, func() {
			if e.Now() != 10 {
				t.Errorf("past At ran at %d, want 10", e.Now())
			}
		})
	})
	e.RunAll()
}

func TestEngineStop(t *testing.T) {
	e := New()
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(int64(i), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.RunAll()
	if n != 3 {
		t.Fatalf("Stop did not halt the run: executed %d events", n)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestEngineStep(t *testing.T) {
	e := New()
	e.Schedule(5, func() {})
	if !e.Step() {
		t.Fatal("Step returned false with pending event")
	}
	if e.Step() {
		t.Fatal("Step returned true with empty queue")
	}
	if e.Processed() != 1 {
		t.Fatalf("processed = %d, want 1", e.Processed())
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed uint64) []int64 {
		e := New()
		r := NewRNG(seed)
		var times []int64
		var spawn func(depth int)
		spawn = func(depth int) {
			times = append(times, e.Now())
			if depth < 5 {
				for i := 0; i < 3; i++ {
					e.Schedule(r.Int63n(100), func() { spawn(depth + 1) })
				}
			}
		}
		e.Schedule(0, func() { spawn(0) })
		e.RunAll()
		return times
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRNGDeterministicAndDistinct(t *testing.T) {
	a, b := NewRNG(1), NewRNG(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(2)
	same := 0
	a.Seed(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds suspiciously correlated: %d collisions", same)
	}
}

func TestRNGZeroSeedWorks(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Int63n(1000); v < 0 || v >= 1000 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// Property: Float64 stays in [0,1) for arbitrary seeds.
func TestRNGFloat64Property(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			v := r.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(99)
	c1 := parent.Fork()
	c2 := parent.Fork()
	equal := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Fatalf("forked streams correlated: %d collisions", equal)
	}
}

func TestPoolSingleServerQueues(t *testing.T) {
	e := New()
	p := NewPool(e, 1)
	var done []int64
	e.Schedule(0, func() {
		p.AcquireEvent(10, Func(func() { done = append(done, e.Now()) }), 0)
		p.AcquireEvent(10, Func(func() { done = append(done, e.Now()) }), 0)
		p.AcquireEvent(10, Func(func() { done = append(done, e.Now()) }), 0)
	})
	e.RunAll()
	want := []int64{10, 20, 30}
	for i, w := range want {
		if done[i] != w {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
	if p.MeanWait() != 10 { // waits 0,10,20 -> mean 10
		t.Fatalf("mean wait = %g, want 10", p.MeanWait())
	}
	if p.MaxWait() != 20 {
		t.Fatalf("max wait = %d, want 20", p.MaxWait())
	}
}

func TestPoolParallelServers(t *testing.T) {
	e := New()
	p := NewPool(e, 3)
	var done []int64
	e.Schedule(0, func() {
		for i := 0; i < 3; i++ {
			p.AcquireEvent(10, Func(func() { done = append(done, e.Now()) }), 0)
		}
	})
	e.RunAll()
	for _, d := range done {
		if d != 10 {
			t.Fatalf("parallel jobs should all finish at 10: %v", done)
		}
	}
	if p.Jobs() != 3 || p.BusyTime() != 30 {
		t.Fatalf("jobs=%d busy=%d, want 3/30", p.Jobs(), p.BusyTime())
	}
}

func TestPoolLateArrivalStartsImmediately(t *testing.T) {
	e := New()
	p := NewPool(e, 1)
	e.Schedule(0, func() { p.AcquireEvent(5, nil, 0) })
	var at int64
	e.Schedule(100, func() { p.AcquireEvent(5, Func(func() { at = e.Now() }), 0) })
	e.RunAll()
	if at != 105 {
		t.Fatalf("late arrival finished at %d, want 105", at)
	}
}

func TestPoolNilDone(t *testing.T) {
	e := New()
	p := NewPool(e, 1)
	e.Schedule(0, func() { p.AcquireEvent(7, nil, 0) })
	e.RunAll() // must not panic
	if p.Jobs() != 1 {
		t.Fatalf("jobs = %d, want 1", p.Jobs())
	}
}

// TestPoolReacquireFromCompletionQueuesBehindBacklog: a completion handler
// that acquires the pool again joins the FIFO behind the queued backlog. The
// server its own job just freed goes to the oldest queued job, not to the
// re-acquire — starting the re-acquire at once would reorder the schedule.
func TestPoolReacquireFromCompletionQueuesBehindBacklog(t *testing.T) {
	e := New()
	p := NewPool(e, 2)
	var order []string
	job := func(name string) Handler {
		return Func(func() { order = append(order, name) })
	}
	e.Schedule(0, func() {
		p.AcquireEvent(10, Func(func() {
			order = append(order, "A")
			p.AcquireEvent(5, job("D"), 0) // the re-acquire
		}), 0)
		p.AcquireEvent(30, job("B"), 0)
		p.AcquireEvent(5, job("C"), 0) // the backlog: both servers are busy
	})
	e.Schedule(12, func() {
		if p.Queued() != 1 {
			t.Errorf("at t=12: queued=%d, want the re-acquire waiting behind C", p.Queued())
		}
	})
	e.RunAll()
	want := []string{"A", "C", "D", "B"} // C runs 10-15, D 15-20, B 0-30
	if len(order) != len(want) {
		t.Fatalf("completions %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completions %v, want %v: the re-acquire overtook the queued job", order, want)
		}
	}
	if p.Jobs() != 4 || p.MaxWait() != 10 || p.Queued() != 0 {
		t.Fatalf("jobs=%d maxWait=%d queued=%d, want 4 jobs, C waiting 10 ns and D 5 ns", p.Jobs(), p.MaxWait(), p.Queued())
	}
}

// testHold is a hold job that keeps its server for a fixed time: OnHold
// schedules its own release.
type testHold struct {
	e       *Engine
	p       *Pool
	keep    int64
	hold    Hold
	started []int64
}

func (h *testHold) OnHold(hold Hold) {
	h.hold = hold
	h.started = append(h.started, h.e.Now())
	h.e.ScheduleEvent(h.keep, h, 0)
}

func (h *testHold) OnEvent(uint64) { h.p.Release(h.hold) }

// TestPoolHoldsCapBelowSize: holds occupy servers until released but never
// more than size-1 of them, so fixed jobs bypass the blocked holds.
func TestPoolHoldsCapBelowSize(t *testing.T) {
	e := New()
	p := NewPool(e, 3)
	holds := []*testHold{{e: e, p: p, keep: 100}, {e: e, p: p, keep: 100}, {e: e, p: p, keep: 100}}
	var fixedAt int64 = -1
	e.Schedule(0, func() {
		for _, h := range holds {
			p.AcquireHold(h)
		}
		p.AcquireEvent(10, Func(func() { fixedAt = e.Now() }), 0)
	})
	e.Schedule(50, func() {
		if p.Held() != 2 || p.Queued() != 1 {
			t.Errorf("at t=50: held=%d queued=%d, want 2 held and the third hold queued", p.Held(), p.Queued())
		}
	})
	e.RunAll()
	if fixedAt != 10 {
		t.Fatalf("fixed job finished at %d, want 10: it must bypass the capped hold", fixedAt)
	}
	for i, want := range []int64{0, 0, 100} {
		if got := holds[i].started; len(got) != 1 || got[0] != want {
			t.Fatalf("hold %d started at %v, want [%d]", i, got, want)
		}
	}
	if p.Held() != 0 || p.Queued() != 0 {
		t.Fatalf("pool did not drain: held=%d queued=%d", p.Held(), p.Queued())
	}
	if p.Jobs() != 4 || p.BusyTime() != 310 {
		t.Fatalf("jobs=%d busy=%d, want 4 jobs and 3x100+10 busy", p.Jobs(), p.BusyTime())
	}
}

// TestPoolSingleServerHoldKeepsServerFree: on a one-server pool a hold runs
// at once and occupies nothing, so the message that would unblock it can
// still be served.
func TestPoolSingleServerHoldKeepsServerFree(t *testing.T) {
	e := New()
	p := NewPool(e, 1)
	h := &testHold{e: e, p: p, keep: 100}
	var fixedAt int64 = -1
	e.Schedule(0, func() {
		p.AcquireHold(h)
		p.AcquireEvent(10, Func(func() { fixedAt = e.Now() }), 0)
	})
	e.RunAll()
	if len(h.started) != 1 || h.started[0] != 0 || fixedAt != 10 {
		t.Fatalf("hold started %v, fixed job done at %d; want [0] and 10", h.started, fixedAt)
	}
	if p.Held() != 0 || p.BusyTime() != 10 {
		t.Fatalf("held=%d busy=%d, want the hold to occupy nothing", p.Held(), p.BusyTime())
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	e := New()
	p := NewPool(e, 2)
	h := &testHold{e: e, p: p, keep: 5}
	e.Schedule(0, func() { p.AcquireHold(h) })
	e.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release of the same hold did not panic")
		}
	}()
	p.Release(h.hold)
}
