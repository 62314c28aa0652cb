package sim

// Randomized differential test: an engine fed cross-node arrivals through
// AtArrival (the sequential wiring) must dispatch exactly what an engine fed
// through a bound Ingress (the LP wiring) dispatches — same events, same
// times, same gap-proof verdicts. The workload is a
// pure function of the seed and draws its randomness inside the handlers, so
// the first dispatch that differs derails everything after it.

import "testing"

const diffSources = 8

// diffRec is one log line: an event's dispatch (id, clock) or, with probe
// set, a TryAdvance verdict and the clock it left behind.
type diffRec struct {
	id    uint64
	at    int64
	probe bool
	ok    bool
}

type arrivalDiff struct {
	e       *Engine
	rng     *RNG
	deliver func(t int64, src int32, seq uint64, h Handler, arg uint64)
	log     []diffRec
	nextID  uint64
	budget  int
	lastAt  [diffSources]int64
	seq     [diffSources]uint64
}

// diffDelay mixes dense near-future times (ties between sources, and between
// arrivals and locals, are the common case), a mid band, and a tail beyond
// the wheel window that must cross the overflow level.
func diffDelay(rng *RNG) int64 {
	switch rng.Int63n(10) {
	case 0, 1, 2, 3, 4:
		return rng.Int63n(6)
	case 5, 6, 7:
		return rng.Int63n(600)
	case 8:
		return wheelSlots - 3 + rng.Int63n(6)
	default:
		return wheelSlots + rng.Int63n(3*wheelSlots)
	}
}

func (d *arrivalDiff) OnEvent(id uint64) {
	e := d.e
	d.log = append(d.log, diffRec{id: id, at: e.Now()})
	if d.rng.Int63n(4) == 0 {
		ok := e.TryAdvance(e.Now() + d.rng.Int63n(40))
		d.log = append(d.log, diffRec{id: id, at: e.Now(), probe: true, ok: ok})
	}
	for k := d.rng.Int63n(4); k > 0; k-- {
		d.spawn()
	}
}

// spawn schedules one more event of a random class, while the budget lasts.
func (d *arrivalDiff) spawn() {
	if d.budget == 0 {
		return
	}
	d.budget--
	e := d.e
	id := d.nextID
	d.nextID++
	t := e.Now() + diffDelay(d.rng)
	switch d.rng.Int63n(7) {
	case 0, 1, 2, 3: // cross-node arrival, pair-FIFO clamped like simnet's
		src := d.rng.Int63n(diffSources)
		if t < d.lastAt[src] {
			t = d.lastAt[src]
		}
		d.lastAt[src] = t
		d.seq[src]++
		d.deliver(t, int32(src), d.seq[src], d, id)
	case 4:
		e.At(t, func() { d.OnEvent(id) })
	default:
		e.AtEvent(t, d, id)
	}
}

// runArrivalWorkload drives one engine and returns its log, its stats and
// whether an AtArrival landed beyond the wheel window.
func runArrivalWorkload(seed uint64, viaIngress bool) ([]diffRec, EngineStats, bool) {
	e := New()
	d := &arrivalDiff{e: e, rng: NewRNG(seed), budget: 4000}
	far := false
	if viaIngress {
		ing := NewIngress(diffSources)
		e.BindIngress(ing)
		d.deliver = func(t int64, src int32, seq uint64, h Handler, arg uint64) {
			ing.Push(int(src), IngressEvent{At: t, Src: src, Seq: seq, H: h, Arg: arg})
		}
	} else {
		d.deliver = func(t int64, src int32, seq uint64, h Handler, arg uint64) {
			if e.wheel.len() > 0 && t-e.wheel.wnow >= wheelSlots {
				far = true
			}
			e.AtArrival(t, src, seq, h, arg)
		}
	}
	for i := 0; i < 100; i++ {
		d.spawn()
	}
	// A bounded run leaves work pending across the Run boundary, which also
	// caps the gap proofs taken inside it.
	e.Run(2 * wheelSlots)
	for i := 0; i < 100; i++ {
		d.spawn()
	}
	e.RunAll()
	if e.Pending() != 0 {
		panic("arrival workload left events pending")
	}
	return d.log, e.Stats(), far
}

// TestArrivalKeyMatchesIngress is the order-equivalence proof behind the
// sequential wiring's single pending set: same-time arrivals from several
// sources, arrivals tying local events, arrivals that cross the overflow
// level, and gap proofs all resolve identically whether arrivals ride the
// scheduler under their canonical key or merge in from an Ingress.
func TestArrivalKeyMatchesIngress(t *testing.T) {
	sawFar, sawAdvance, sawRefusal := false, false, false
	for seed := uint64(1); seed <= 30; seed++ {
		want, ws, _ := runArrivalWorkload(seed, true)
		got, gs, far := runArrivalWorkload(seed, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines via AtArrival, %d via Ingress", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d diverges: AtArrival %+v, Ingress %+v", seed, i, got[i], want[i])
			}
			if want[i].probe {
				sawAdvance = sawAdvance || want[i].ok
				sawRefusal = sawRefusal || !want[i].ok
			}
		}
		if gs.Processed != ws.Processed || gs.Ingress != ws.Ingress || gs.MaxPending != ws.MaxPending {
			t.Fatalf("seed %d: stats diverge: AtArrival %+v, Ingress %+v", seed, gs, ws)
		}
		if gs.Ingress == 0 {
			t.Fatalf("seed %d: no arrival dispatched", seed)
		}
		sawFar = sawFar || far
	}
	if !sawFar {
		t.Fatal("no arrival crossed the overflow level; differential coverage is incomplete")
	}
	if !sawAdvance || !sawRefusal {
		t.Fatalf("gap proofs one-sided (advance=%v refusal=%v)", sawAdvance, sawRefusal)
	}
}

// TestAtArrivalOrder pins the key classes by hand: at one timestamp arrivals
// run in (src, seq) order whatever order they were scheduled in, and before
// every local event, including one scheduled first. The scheduling order
// takes the wheel's three insert paths: head prepend (an arrival ahead of
// everything in its bucket), mid-chain splice (an arrival behind earlier
// sources and ahead of the locals) and tail append.
func TestAtArrivalOrder(t *testing.T) {
	e := New()
	var order []uint64
	rec := &orderRecorder{order: &order}
	e.AtEvent(50, rec, 100)        // local, scheduled first
	e.AtArrival(50, 1, 2, rec, 12) // head prepend
	e.AtArrival(50, 1, 9, rec, 19) // splice right behind the head
	e.AtArrival(50, 3, 1, rec, 31) // splice after a two-node walk
	e.AtArrival(40, 7, 5, rec, 75)
	e.AtEvent(50, rec, 101) // tail append
	e.AtArrival(50, 0, 4, rec, 4)
	e.RunAll()
	want := []uint64{75, 4, 12, 19, 31, 100, 101}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
	if st := e.Stats(); st.Ingress != 5 || st.MaxPending != 2 {
		t.Fatalf("Ingress=%d MaxPending=%d, want 5 and 2 (local events only)", st.Ingress, st.MaxPending)
	}
}

// TestAtArrivalRejectsBadKeys: an arrival in the engine's past, or a source
// the 15-bit key field cannot hold, is a wiring bug and panics, as an
// unsorted Ingress lane does.
func TestAtArrivalRejectsBadKeys(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	rec := &orderRecorder{order: new([]uint64)}
	e := New()
	e.At(100, func() {})
	e.RunAll()
	mustPanic("arrival in the past", func() { e.AtArrival(99, 0, 1, rec, 0) })
	mustPanic("source above the key range", func() { e.AtArrival(200, MaxArrivalSources, 1, rec, 0) })
	mustPanic("negative source", func() { e.AtArrival(200, -1, 1, rec, 0) })
	e.AtArrival(100, MaxArrivalSources-1, 1, rec, 0) // both bounds inclusive: now, and the last source
	e.RunAll()
	if e.Stats().Ingress != 1 {
		t.Fatalf("in-range arrival did not dispatch: %+v", e.Stats())
	}
}

// TestAtArrivalAllocs: at steady state scheduling and dispatching arrivals —
// near ones and ones that cross the overflow level — allocates nothing.
func TestAtArrivalAllocs(t *testing.T) {
	e := New()
	e.Reserve(256)
	rec := &probeHandler{fn: func(uint64) {}}
	seq := uint64(0)
	allocs := testing.AllocsPerRun(200, func() {
		now := e.Now()
		for i := 0; i < 64; i++ {
			seq++
			e.AtArrival(now+int64(i%7)*300, int32(i%5), seq, rec, 0)
		}
		seq++
		e.AtArrival(now+2*wheelSlots, 0, seq, rec, 0)
		e.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("AtArrival schedule+run allocated %.2f per cycle, want 0", allocs)
	}
}
