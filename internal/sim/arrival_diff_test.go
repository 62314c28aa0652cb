package sim

// Randomized differential test for the LP wiring's arrival path: arrivals
// scheduled with AtArrival at send time must dispatch exactly as the same
// arrivals parked in a mailbox and scheduled with AtArrival at the next epoch
// barrier — same events, same times, same gap-proof verdicts. The workload is
// a pure function of the seed and draws its randomness inside the handlers,
// so the first dispatch that differs derails everything after it.

import "testing"

const (
	diffSources = 8
	// diffLookahead is the epoch width and the floor of every arrival's
	// delay, the contract LPGroup's callers keep.
	diffLookahead = 64
)

// diffRec is one log line: an event's dispatch (id, clock) or, with probe
// set, a TryAdvance verdict and the clock it left behind.
type diffRec struct {
	id    uint64
	at    int64
	probe bool
	ok    bool
}

// parkedArrival is one arrival waiting in its sender's mailbox for the
// barrier.
type parkedArrival struct {
	at  int64
	seq uint64
	id  uint64
}

type arrivalDiff struct {
	e         *Engine
	rng       *RNG
	atBarrier bool                         // park arrivals for the barrier instead of scheduling them
	mail      [diffSources][]parkedArrival // per-sender arrivals parked this epoch
	far       bool                         // an arrival landed beyond the wheel window
	log       []diffRec
	nextID    uint64
	budget    int
	lastAt    [diffSources]int64
	seq       [diffSources]uint64
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
		t += diffLookahead
		src := d.rng.Int63n(diffSources)
		if t < d.lastAt[src] {
			t = d.lastAt[src]
		}
		d.lastAt[src] = t
		d.seq[src]++
		if d.atBarrier {
			d.mail[src] = append(d.mail[src], parkedArrival{at: t, seq: d.seq[src], id: id})
			return
		}
		d.arrive(t, int32(src), d.seq[src], id)
	case 4:
		e.At(t, func() { d.OnEvent(id) })
	default:
		e.AtEvent(t, d, id)
	}
}

// arrive schedules one arrival, noting whether it lands beyond the window.
func (d *arrivalDiff) arrive(t int64, src int32, seq, id uint64) {
	if w := &d.e.wheel; w.len() > 0 && t-w.wnow >= wheelSlots {
		d.far = true
	}
	d.e.AtArrival(t, src, seq, d, id)
}

// barrier delivers the epoch's mail, sender by sender in descending source
// order — neither the send order nor the key order, so only the arrival key
// can restore the send-time dispatch.
func (d *arrivalDiff) barrier() {
	for src := diffSources - 1; src >= 0; src-- {
		for _, m := range d.mail[src] {
			d.arrive(m.at, int32(src), m.seq, m.id)
		}
		d.mail[src] = d.mail[src][:0]
	}
}

// runArrivalWorkload drives one engine through a one-LP group and returns
// its log, its stats and whether an arrival landed beyond the wheel window.
func runArrivalWorkload(seed uint64, atBarrier bool) ([]diffRec, EngineStats, bool) {
	e := New()
	d := &arrivalDiff{e: e, rng: NewRNG(seed), atBarrier: atBarrier, budget: 4000}
	g := NewLPGroup([]*Engine{e}, diffLookahead, 1, d.barrier)
	defer g.Close()
	for i := 0; i < 100; i++ {
		d.spawn()
	}
	// A second burst from inside the run, after work has crossed many
	// epoch boundaries (each of which caps the gap proofs taken inside it).
	e.At(2*wheelSlots, func() {
		for i := 0; i < 100; i++ {
			d.spawn()
		}
	})
	// Every barrier empties the mailbox, so between Runs everything left is
	// pending in the engine.
	for e.Pending() > 0 {
		g.Run(e.Now() + 4*wheelSlots)
	}
	return d.log, e.Stats(), d.far
}

// TestBarrierArrivalsMatchSendTime is the order-equivalence proof behind the
// LP wiring's mailboxes: same-time arrivals from several sources, arrivals
// tying local events, arrivals that cross the overflow level, and gap proofs
// all resolve identically whether each arrival is scheduled at send time or
// parked until the epoch barrier and scheduled then, under the same key.
func TestBarrierArrivalsMatchSendTime(t *testing.T) {
	sawFar, sawAdvance, sawRefusal := false, false, false
	for seed := uint64(1); seed <= 30; seed++ {
		want, ws, _ := runArrivalWorkload(seed, false)
		got, gs, far := runArrivalWorkload(seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log lines via the barrier, %d at send time", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d diverges: barrier %+v, send time %+v", seed, i, got[i], want[i])
			}
			if want[i].probe {
				sawAdvance = sawAdvance || want[i].ok
				sawRefusal = sawRefusal || !want[i].ok
			}
		}
		if gs.Processed != ws.Processed || gs.Ingress != ws.Ingress || gs.MaxPending != ws.MaxPending {
			t.Fatalf("seed %d: stats diverge: barrier %+v, send time %+v", seed, gs, ws)
		}
		if gs.Ingress == 0 {
			t.Fatalf("seed %d: no arrival dispatched", seed)
		}
		sawFar = sawFar || far
	}
	if !sawFar {
		t.Fatal("no barrier arrival crossed the overflow level; differential coverage is incomplete")
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
// the 15-bit key field cannot hold, is a wiring bug and panics.
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
	rec := Func(func() {})
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
