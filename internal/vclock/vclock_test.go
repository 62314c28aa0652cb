package vclock

import "testing"

func TestCloneIndependence(t *testing.T) {
	a := New(2)
	a[0]++
	b := a.Clone()
	b[1]++
	if a[0] != 1 || a[1] != 0 || b[0] != 1 {
		t.Fatalf("clone %v of %v aliased or lost the original", b, a)
	}
}

func TestWireSize(t *testing.T) {
	if got := (VC{1, 2, 3}).WireSize(); got != 24 {
		t.Fatalf("wire size = %d, want 24", got)
	}
}
