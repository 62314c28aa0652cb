package sim

import (
	"testing"
	"unsafe"
)

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
	case 0, 1, 2:
		return rng.Int63n(4)
	case 3, 4:
		return rng.Int63n(64)
	case 5, 6:
		return rng.Int63n(4096)
	case 7, 8:
		return rng.Int63n(2 * wheelSlots)
	default:
		return wheelSlots + rng.Int63n(16*wheelSlots)
	}
}

// schedScript drives an eventHeap (the oracle) and a timingWheel side by side
// with one seeded script of push / popIfAtMost / headAt / len calls and fails
// on the first return value that differs. now plays the engine clock: it
// follows every pop and may jump ahead over a proven gap, as TryAdvance does.
type schedScript struct {
	t    *testing.T
	seed uint64
	rng  *RNG
	heap eventHeap
	w    timingWheel
	now  int64
	seq  uint64    // local insertion sequence
	src  [4]uint64 // per-source arrival sequences
	id   uint64

	pops, refusals, splices int
}

// push schedules one event into both structures under a fresh key: a local
// key or, as often, an arrival key, which sorts ahead of every local event of
// its timestamp whenever it is pushed.
func (s *schedScript) push() {
	ev := event{at: s.now + schedRandomDelay(s.rng), arg: s.id}
	s.id++
	if s.rng.Int63n(2) == 0 {
		src := s.rng.Int63n(int64(len(s.src)))
		s.src[src]++
		ev.seq = packKey(int32(src), s.src[src])
		// The wheel must walk its bucket chain when two or more pending
		// events of this timestamp sort ahead of the new key and one behind.
		ahead, behind := 0, 0
		for i := range s.heap.evs {
			if p := &s.heap.evs[i]; p.at == ev.at {
				if p.seq < ev.seq {
					ahead++
				} else {
					behind++
				}
			}
		}
		if ahead >= 2 && behind >= 1 {
			s.splices++
		}
	} else {
		s.seq++
		ev.seq = localBit | s.seq
	}
	s.heap.push(ev)
	s.w.push(&ev, s.now)
}

// pop probes both structures with one limit.
func (s *schedScript) pop(limit int64) {
	var want event
	wok := s.heap.len() > 0 && s.heap.headAt() <= limit
	if wok {
		want = s.heap.pop()
	}
	at, seq, _, arg, gok := s.w.popIfAtMost(limit)
	if gok != wok || at != want.at || seq != want.seq || arg != want.arg {
		s.t.Fatalf("seed %d: popIfAtMost(%d) = (%d, %#x, id %d, %v) from the wheel, (%d, %#x, id %d, %v) from the heap",
			s.seed, limit, at, seq, arg, gok, want.at, want.seq, want.arg, wok)
	}
	if !wok {
		if s.heap.len() > 0 {
			s.refusals++
		}
		return
	}
	s.pops++
	s.now = want.at
}

// check compares the two read-only views.
func (s *schedScript) check() {
	if got, want := s.w.headAt(), s.heap.headAt(); got != want {
		s.t.Fatalf("seed %d: headAt = %d from the wheel, %d from the heap", s.seed, got, want)
	}
	if got, want := s.w.len(), s.heap.len(); got != want {
		s.t.Fatalf("seed %d: len = %d in the wheel, %d in the heap", s.seed, got, want)
	}
}

// TestSchedulerDifferentialRandomized proves the timing wheel dispatches the
// (time, key) order of the 4-ary heap it replaced: the same seeded script
// must produce identical returns from both, call by call. The delays cross
// the wheel's window edge, so the overflow level and wheel turns are
// exercised (asserted via the wheel's counters), as are arrival keys landing
// mid-chain among pending events of their timestamp, refused probes and clock
// jumps over proven gaps.
func TestSchedulerDifferentialRandomized(t *testing.T) {
	sawOverflow, sawSplice := false, false
	for seed := uint64(1); seed <= 25; seed++ {
		s := &schedScript{t: t, seed: seed, rng: NewRNG(seed)}
		for step := 0; step < 4000; step++ {
			switch op := s.rng.Int63n(10); {
			case op < 4 && step < 3000:
				for burst := s.rng.Int63n(4); burst >= 0; burst-- {
					s.push()
				}
			case op < 8:
				s.pop(s.now + schedRandomDelay(s.rng))
			case op == 8:
				// TryAdvance's move: jump the clock over a proven gap.
				if to := s.now + schedRandomDelay(s.rng); s.heap.headAt() > to {
					s.now = to
				}
			default:
				s.pop(maxTime)
			}
			s.check()
		}
		for s.heap.len() > 0 {
			s.pop(maxTime)
			s.check()
		}
		if s.pops == 0 || s.refusals == 0 {
			t.Fatalf("seed %d: script one-sided (%d pops, %d refused probes)", seed, s.pops, s.refusals)
		}
		sawOverflow = sawOverflow || (s.w.overflowEvents > 0 && s.w.turns > 0)
		sawSplice = sawSplice || s.splices > 0
	}
	if !sawOverflow {
		t.Fatal("script never exercised the overflow level; differential coverage is incomplete")
	}
	if !sawSplice {
		t.Fatal("no arrival key ever landed mid-chain; differential coverage is incomplete")
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

// TestWheelOverflowStragglerOrdering pins the drain-after-push edge: an old
// event parked in the overflow level whose bucket handlers have already
// pushed same-time events into — a younger local event and an arrival. The
// drain must splice the old event between them: behind the arrival, whose key
// class runs first, and ahead of the younger local.
func TestWheelOverflowStragglerOrdering(t *testing.T) {
	e := New()
	far := int64(wheelSlots + 100)
	var order []uint64
	rec := &orderRecorder{order: &order}
	e.AtEvent(far, rec, 1) // beyond the window at push time: overflow
	if e.Stats().Overflow != 1 {
		t.Fatal("far event did not land in the overflow level; coverage assumption broken")
	}
	e.At(200, func() {
		// The window now covers far; these enter its bucket directly while
		// the old event still sits in overflow.
		e.AtEvent(far, rec, 2)
		e.AtArrival(far, 0, 1, rec, 0)
	})
	e.RunAll()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("straggler dispatch order %v, want [0 1 2]", order)
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
			p.AcquireEvent(int64(i%7), Func(fn), 0)
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

// TestPendingRecordBytes pins the wheel's node at 40 B: it is what every
// pending event occupies (scale160's <Ev,Ev> cell keeps about 15,000 of them
// live). The node holds the event's key, handler and argument and its chain
// link; its time is its bucket's, so storing it too made the node 48 B.
// internal/protocol and internal/simnet pin their pending records in tests of
// the same name.
func TestPendingRecordBytes(t *testing.T) {
	if got := unsafe.Sizeof(eventNode{}); got != 40 {
		t.Fatalf("eventNode is %d B, want 40", got)
	}
}
