package sim

import "testing"

// orderRecorder is a typed-event sink that appends its argument to a shared
// execution log — the typed-path counterpart of a recording closure.
type orderRecorder struct {
	order *[]uint64
}

func (r *orderRecorder) OnEvent(arg uint64) { *r.order = append(*r.order, arg) }

// schedRandomDelay draws from a distribution shaped like the simulator's:
// mostly dense near-future times (lots of ties), a band around the wheel's
// window edge, and a tail of far events that must traverse the overflow
// level.
func schedRandomDelay(rng *RNG) int64 {
	switch rng.Int63n(10) {
	case 0, 1, 2, 3:
		return rng.Int63n(64)
	case 4, 5, 6:
		return rng.Int63n(4096)
	case 7, 8:
		return rng.Int63n(2 * wheelSlots)
	default:
		return wheelSlots + rng.Int63n(16*wheelSlots)
	}
}

// runSchedulerWorkload drives one engine through a randomized mixed workload
// (closures and typed events, events spawning events, a bounded Run followed
// by more scheduling, then RunAll) and returns the execution order by event
// id. The workload is a pure function of the seed, so two schedulers given
// the same seed must produce identical logs.
func runSchedulerWorkload(s Scheduler, seed uint64) ([]uint64, EngineStats) {
	e := NewWithScheduler(s)
	rng := NewRNG(seed)
	var order []uint64
	rec := &orderRecorder{order: &order}
	nextID := uint64(0)

	var spawn func(depth int)
	spawn = func(depth int) {
		id := nextID
		nextID++
		delay := schedRandomDelay(rng)
		if rng.Int63n(4) == 0 {
			e.ScheduleEvent(delay, rec, id)
			return
		}
		e.Schedule(delay, func() {
			order = append(order, id)
			if depth < 3 {
				for k := rng.Int63n(3); k > 0; k-- {
					spawn(depth + 1)
				}
			}
		})
	}

	for i := 0; i < 200; i++ {
		spawn(0)
	}
	// A bounded run leaves events pending across the Run boundary, then more
	// arrive at a later now — exercising window re-basing on a live backlog.
	e.Run(3 * wheelSlots)
	for i := 0; i < 200; i++ {
		spawn(0)
	}
	e.RunAll()
	return order, e.Stats()
}

// TestSchedulerDifferentialRandomized proves the timing wheel and the 4-ary
// heap dispatch identical (time, seq) orders: the same seeded workload must
// produce byte-identical execution logs on both schedulers. The workload
// deliberately crosses the wheel's window edge so the overflow level and
// wheel turns are exercised (asserted via Stats).
func TestSchedulerDifferentialRandomized(t *testing.T) {
	sawOverflow := false
	for seed := uint64(1); seed <= 25; seed++ {
		wheelOrder, ws := runSchedulerWorkload(SchedulerWheel, seed)
		heapOrder, _ := runSchedulerWorkload(SchedulerHeap, seed)
		if len(wheelOrder) != len(heapOrder) {
			t.Fatalf("seed %d: wheel ran %d events, heap %d", seed, len(wheelOrder), len(heapOrder))
		}
		for i := range wheelOrder {
			if wheelOrder[i] != heapOrder[i] {
				t.Fatalf("seed %d: execution order diverges at event %d: wheel=%d heap=%d",
					seed, i, wheelOrder[i], heapOrder[i])
			}
		}
		if ws.Overflow > 0 && ws.Turns > 0 {
			sawOverflow = true
		}
	}
	if !sawOverflow {
		t.Fatal("workload never exercised the overflow level; differential coverage is incomplete")
	}
}

// TestWheelOverflowOrdering pins the wheel-turn edge cases with a
// hand-constructed schedule: far events beyond the window, a tie at a far
// time, and a near event scheduled after the far ones (which must still run
// first).
func TestWheelOverflowOrdering(t *testing.T) {
	e := New()
	var got []int
	at := func(tm int64, id int) { e.At(tm, func() { got = append(got, id) }) }

	at(5*wheelSlots, 0)  // deep overflow
	at(5*wheelSlots, 1)  // tie with 0: FIFO
	at(wheelSlots+10, 2) // just past the window
	at(3, 3)             // near future, scheduled last
	at(2*wheelSlots, 4)  // between the others
	e.RunAll()

	want := []int{3, 2, 4, 0, 1}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("overflow dispatch order %v, want %v", got, want)
		}
	}
	if st := e.Stats(); st.Overflow != 4 || st.Turns == 0 {
		t.Fatalf("expected 4 overflow events and >=1 turn, got %+v", st)
	}
}

// TestWheelWindowRebase covers the push-side re-base: after an idle gap far
// longer than the window, a short-delay event must land in the wheel (not
// overflow), and ordering with a subsequent far event must hold.
func TestWheelWindowRebase(t *testing.T) {
	e := New()
	var got []int
	e.At(10*wheelSlots, func() { got = append(got, 0) })
	e.RunAll() // clock is now far beyond the initial window
	e.Schedule(5, func() { got = append(got, 1) })
	e.Schedule(wheelSlots+5, func() { got = append(got, 2) })
	e.RunAll()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("post-idle dispatch order %v, want [0 1 2]", got)
	}
	if st := e.Stats(); st.Wheel < 1 {
		t.Fatalf("short-delay event after idle gap missed the wheel window: %+v", st)
	}
}

// TestEngineDeepPendingAllocs extends the zero-allocation guard to a deep
// backlog: with 10k events in flight every cycle — spanning both the wheel
// window and the overflow level — steady-state scheduling and dispatch must
// not allocate (slab, freelist, and overflow storage all warm up once).
func TestEngineDeepPendingAllocs(t *testing.T) {
	e := New()
	e.Reserve(10000)
	fn := func() {}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 10000; i++ {
			e.Schedule(int64(i%(2*wheelSlots)), fn)
		}
		e.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("deep-pending schedule+run allocated %.2f per cycle, want 0", allocs)
	}
}

// TestPoolDeepQueueAllocs locks in the O(1), allocation-free dispatch cycle
// under a deep queue: a burst far exceeding the pool size must drain with no
// steady-state allocation (job rings and completion records recycle).
func TestPoolDeepQueueAllocs(t *testing.T) {
	e := New()
	e.Reserve(64)
	p := NewPool(e, 4)
	fn := func() {}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 256; i++ {
			p.Acquire(int64(i%7), fn)
		}
		e.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("deep-queue pool cycle allocated %.2f per run, want 0", allocs)
	}
	if p.Queued() != 0 || p.Held() != 0 {
		t.Fatalf("pool did not drain: queued=%d held=%d", p.Queued(), p.Held())
	}
}

// TestPoolHoldAllocs: queueing, starting and releasing holds allocates
// nothing once the rings have grown — a hold is its Holder plus a token.
func TestPoolHoldAllocs(t *testing.T) {
	e := New()
	e.Reserve(64)
	p := NewPool(e, 4)
	holds := make([]*testHold, 32)
	for i := range holds {
		holds[i] = &testHold{e: e, p: p, keep: int64(i%5 + 1), started: make([]int64, 0, 1)}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, h := range holds {
			h.started = h.started[:0]
			p.AcquireHold(h)
		}
		e.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("hold cycle allocated %.2f per run, want 0", allocs)
	}
	if p.Queued() != 0 || p.Held() != 0 {
		t.Fatalf("pool did not drain: queued=%d held=%d", p.Queued(), p.Held())
	}
}
