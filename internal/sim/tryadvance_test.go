package sim

import "testing"

// TestTryAdvanceBasics exercises the clock-jump proof obligations one at a
// time from inside a running dispatch, the only place TryAdvance is meant to
// be called.
func TestTryAdvanceBasics(t *testing.T) {
	e := New()
	ran := false
	e.At(10, func() {
		ran = true
		if e.TryAdvance(5) {
			t.Fatal("advanced into the past")
		}
		if !e.TryAdvance(50) {
			t.Fatal("refused a provably empty gap")
		}
		if e.Now() != 50 {
			t.Fatalf("clock at %d after advance, want 50", e.Now())
		}
		if e.TryAdvance(100) {
			t.Fatal("advanced to the Run bound")
		}
		if e.TryAdvance(150) {
			t.Fatal("advanced past the Run bound")
		}
		if !e.TryAdvance(99) {
			t.Fatal("refused the last in-bound instant")
		}
	})
	if got := e.Run(100); got != 100 || !ran {
		t.Fatalf("run ended at %d (ran=%v)", got, ran)
	}
}

// TestTryAdvanceBlockedByLocalEvent asserts a pending local event at or
// before t vetoes the jump, and that a successful jump never reorders or
// drops the events behind it.
func TestTryAdvanceBlockedByLocalEvent(t *testing.T) {
	e := New()
	var order []int64
	e.At(60, func() { order = append(order, e.Now()) })
	e.At(10, func() {
		if e.TryAdvance(60) {
			t.Fatal("jumped onto a pending event")
		}
		if e.TryAdvance(70) {
			t.Fatal("jumped over a pending event")
		}
		if !e.TryAdvance(59) {
			t.Fatal("refused the gap before the next event")
		}
		order = append(order, e.Now())
	})
	e.Run(100)
	if len(order) != 2 || order[0] != 59 || order[1] != 60 {
		t.Fatalf("dispatch order %v, want [59 60]", order)
	}
}

// TestTryAdvanceBlockedByArrival asserts a pending cross-node arrival at or
// before t vetoes the jump just like a local event does.
func TestTryAdvanceBlockedByArrival(t *testing.T) {
	e := New()
	var arrived int64
	h := Func(func() { arrived = e.Now() })
	e.AtArrival(40, 0, 1, h, 0)
	e.At(10, func() {
		if e.TryAdvance(40) {
			t.Fatal("jumped onto a pending arrival")
		}
		if e.TryAdvance(45) {
			t.Fatal("jumped over a pending arrival")
		}
		if !e.TryAdvance(39) {
			t.Fatal("refused the gap before the arrival")
		}
	})
	e.Run(100)
	if arrived != 40 {
		t.Fatalf("arrival dispatched at %d, want 40", arrived)
	}
}

// TestTryAdvanceOverflowHorizon asserts the wheel's headAt probe sees events
// parked in the overflow level beyond the 16384 ns window.
func TestTryAdvanceOverflowHorizon(t *testing.T) {
	e := New()
	far := int64(wheelSlots * 3)
	hit := false
	e.At(far, func() { hit = true })
	e.At(1, func() {
		if e.TryAdvance(far) {
			t.Fatal("jumped onto an overflow event")
		}
		if !e.TryAdvance(far - 1) {
			t.Fatal("refused the gap before the overflow event")
		}
	})
	e.Run(far + 10)
	if !hit {
		t.Fatal("overflow event lost after clock jump")
	}
}

// TestTryAdvanceRunAllUnbounded asserts RunAll places no artificial ceiling
// on jumps (runUntil is maxTime there).
func TestTryAdvanceRunAllUnbounded(t *testing.T) {
	e := New()
	var at int64
	e.At(5, func() {
		if !e.TryAdvance(1 << 40) {
			t.Fatal("RunAll refused a far jump")
		}
		at = e.Now()
	})
	e.RunAll()
	if at != 1<<40 {
		t.Fatalf("clock at %d, want %d", at, int64(1)<<40)
	}
}
