package sim

import (
	"sync/atomic"
	"testing"
)

// TestIngressOrderIndependence asserts the ingress pops in canonical
// (At, Src, Seq) order no matter how lane pushes interleave globally. Each
// lane's own pushes stay time-sorted (the pair-FIFO guarantee); only the
// cross-lane interleaving varies.
func TestIngressOrderIndependence(t *testing.T) {
	// Three lanes (flows), each internally sorted by (At, Seq).
	lanes := [][]IngressEvent{
		{{At: 10, Src: 0, Seq: 2}, {At: 10, Src: 0, Seq: 7}, {At: 30, Src: 0, Seq: 9}},
		{{At: 10, Src: 2, Seq: 3}, {At: 10, Src: 2, Seq: 9}, {At: 20, Src: 2, Seq: 11}},
		{{At: 20, Src: 1, Seq: 1}, {At: 25, Src: 1, Seq: 2}},
	}
	want := []IngressEvent{
		{At: 10, Src: 0, Seq: 2},
		{At: 10, Src: 0, Seq: 7},
		{At: 10, Src: 2, Seq: 3},
		{At: 10, Src: 2, Seq: 9},
		{At: 20, Src: 1, Seq: 1},
		{At: 20, Src: 2, Seq: 11},
		{At: 25, Src: 1, Seq: 2},
		{At: 30, Src: 0, Seq: 9},
	}
	// Enumerate interleavings: at each step pick the next event of one lane,
	// chosen by a 3-digit mixed-radix "schedule" counter.
	for sched := 0; sched < 729; sched++ {
		q := NewIngress(len(lanes))
		pos := make([]int, len(lanes))
		pushed, s := 0, sched
		for pushed < len(want) {
			lane := s % 3
			s = s/3 + sched // keep perturbing the pick
			for off := 0; off < 3; off++ {
				l := (lane + off) % 3
				if pos[l] < len(lanes[l]) {
					q.Push(l, lanes[l][pos[l]])
					pos[l]++
					pushed++
					break
				}
			}
		}
		for i := range want {
			if q.HeadAt() != want[i].At {
				t.Fatalf("sched=%d pop %d: HeadAt %d, want %d", sched, i, q.HeadAt(), want[i].At)
			}
			got := q.Pop()
			if got.At != want[i].At || got.Src != want[i].Src || got.Seq != want[i].Seq {
				t.Fatalf("sched=%d pop %d: got (%d,%d,%d), want (%d,%d,%d)",
					sched, i, got.At, got.Src, got.Seq, want[i].At, want[i].Src, want[i].Seq)
			}
		}
		if q.Len() != 0 {
			t.Fatalf("sched=%d: %d events left", sched, q.Len())
		}
	}
}

// TestIngressRejectsUnsortedLane asserts the pair-FIFO contract is enforced:
// a lane pushed backwards in time panics instead of silently reordering.
func TestIngressRejectsUnsortedLane(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order lane push did not panic")
		}
	}()
	q := NewIngress(1)
	q.Push(0, IngressEvent{At: 20, Src: 0, Seq: 1})
	q.Push(0, IngressEvent{At: 10, Src: 0, Seq: 2})
}

// TestLPGroupEpochArithmetic checks the epoch schedule: Run(until) covers
// [next, until] in lookahead-width slices with a barrier after each, and a
// second Run continues without re-running covered time.
func TestLPGroupEpochArithmetic(t *testing.T) {
	engs := []*Engine{New(), New()}
	barriers := 0
	g := NewLPGroup(engs, 100, 1, func() { barriers++ })
	defer g.Close()

	g.Run(249) // epochs [0,99] [100,199] [200,249]
	if g.epochs != 3 || barriers != 3 {
		t.Fatalf("after Run(249): epochs=%d barriers=%d, want 3/3", g.epochs, barriers)
	}
	for i, e := range engs {
		if e.Now() != 249 {
			t.Fatalf("eng %d clock %d, want 249", i, e.Now())
		}
	}
	g.Run(449) // continues: [250,349] [350,449]
	if g.epochs != 5 || barriers != 5 {
		t.Fatalf("after Run(449): epochs=%d barriers=%d, want 5/5", g.epochs, barriers)
	}
	st := g.Stats()
	if st.LPs != 2 || st.Workers != 1 || st.Lookahead != 100 || st.Epochs != 5 {
		t.Fatalf("stats %+v", st)
	}
}

// TestLPGroupWorkerClamp asserts workers are clamped to [1, len(engs)].
func TestLPGroupWorkerClamp(t *testing.T) {
	engs := []*Engine{New(), New(), New()}
	g := NewLPGroup(engs, 10, 16, nil)
	if g.Stats().Workers != 3 {
		t.Fatalf("workers = %d, want clamp to 3", g.Stats().Workers)
	}
	g.Close()
	g = NewLPGroup(engs, 10, 0, nil)
	if g.Stats().Workers != 1 {
		t.Fatalf("workers = %d, want clamp to 1", g.Stats().Workers)
	}
	g.Close()
}

// TestLPGroupParallelAdvance runs event-bearing engines on multiple workers
// and checks every engine processed its local schedule and all clocks agree.
func TestLPGroupParallelAdvance(t *testing.T) {
	const n = 4
	engs := make([]*Engine, n)
	var fired [n]atomic.Int64
	for i := range engs {
		engs[i] = New()
		e, slot := engs[i], &fired[i]
		// A self-rescheduling local event chain on each LP.
		var tick func()
		tick = func() {
			slot.Add(1)
			if e.Now() < 1000 {
				e.Schedule(7, tick)
			}
		}
		e.Schedule(0, tick)
	}
	g := NewLPGroup(engs, 50, 3, nil)
	defer g.Close()
	g.Run(1050)
	for i := range engs {
		if engs[i].Now() != 1050 {
			t.Fatalf("eng %d clock %d, want 1050", i, engs[i].Now())
		}
		// Chain fires at 0, 7, 14, ..., last schedule from t<=1000: 144 events
		// at t=0..1001 step 7 => fires while Now<1000 reschedule; count =
		// floor(1001/7)+1 = 144.
		if got := fired[i].Load(); got != 144 {
			t.Fatalf("eng %d fired %d events, want 144", i, got)
		}
	}
	if g.Stats().Epochs != 22 { // ceil(1051/50) = 22: [0,49]..[1000,1049], [1050,1050]
		t.Fatalf("epochs = %d, want 22", g.Stats().Epochs)
	}
}

// TestLPGroupZeroLookaheadPanics asserts the constructor rejects an unsafe
// epoch width.
func TestLPGroupZeroLookaheadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLPGroup(lookahead=0) did not panic")
		}
	}()
	NewLPGroup([]*Engine{New()}, 0, 1, nil)
}
