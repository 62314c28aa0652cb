package protocol

import (
	"testing"

	"repro/internal/vclock"
)

func TestSlabRecyclesAndZeroes(t *testing.T) {
	var s slab[bufferedUpd]
	a := s.put(bufferedUpd{key: 1, vc: vclock.New(3)})
	b := s.put(bufferedUpd{key: 2})
	if a == 0 || b == 0 || a == b {
		t.Fatalf("tokens %d, %d: want distinct and nonzero", a, b)
	}
	if got := s.take(a); got.key != 1 || got.vc == nil {
		t.Fatalf("take(%d) = %+v, want the record put there", a, got)
	}
	if s.at(a).vc != nil {
		t.Fatal("a freed slot still pins its vector clock")
	}
	if c := s.put(bufferedUpd{key: 3}); c != a {
		t.Fatalf("put after take returned token %d, want the freed %d", c, a)
	}
	if len(s.slots) != 2 {
		t.Fatalf("slab grew to %d slots for 2 live records", len(s.slots))
	}
}

// TestSlabFIFO: push/detach/pop walk in insertion order, entries pushed
// during a walk start the next FIFO, and interleaved lists share one slab.
func TestSlabFIFO(t *testing.T) {
	var s slab[int]
	var x, y int32
	for i := 1; i <= 3; i++ {
		s.push(&x, i)
		s.push(&y, 10*i)
	}
	var got []int
	for head := s.detach(&x); head != 0; {
		v := s.pop(&head)
		got = append(got, v)
		if v < 3 {
			s.push(&x, v+100) // re-entrant append
		}
	}
	for head := s.detach(&x); head != 0; {
		got = append(got, s.pop(&head))
	}
	for head := s.detach(&y); head != 0; {
		got = append(got, s.pop(&head))
	}
	want := []int{1, 2, 3, 101, 102, 10, 20, 30}
	if len(got) != len(want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk = %v, want %v", got, want)
		}
	}
	if x != 0 || y != 0 || s.detach(&x) != 0 {
		t.Fatal("drained FIFOs are not empty")
	}
	if len(s.slots) > 6 {
		t.Fatalf("slab holds %d slots, want at most the 6 ever live at once", len(s.slots))
	}
}

func TestStampSet(t *testing.T) {
	var s stampSets
	var a, b stampSet
	s.add(&a, 5)
	s.add(&a, 7)
	s.add(&a, 5) // a set: adding a member again changes nothing
	s.add(&b, 5)
	s.remove(&a, 9) // not a member: no-op
	s.remove(&a, 5)
	if a == 0 {
		t.Fatal("set emptied while 7 is still a member")
	}
	s.remove(&a, 7)
	if a != 0 {
		t.Fatal("set not empty after removing every member")
	}
	if b == 0 {
		t.Fatal("removing from one set emptied another")
	}
	s.remove(&b, 5)
	if b != 0 || len(s.slots) != 3 {
		t.Fatalf("b=%d slots=%d, want empty sets over the 3 slots ever live at once", b, len(s.slots))
	}
}
