package protocol

import (
	"testing"
)

func TestSlabRecyclesAndZeroes(t *testing.T) {
	var s slab[*clientOp]
	a := s.put(&clientOp{key: 1})
	b := s.put(&clientOp{key: 2})
	if a == 0 || b == 0 || a == b {
		t.Fatalf("tokens %d, %d: want distinct and nonzero", a, b)
	}
	if got := s.take(a); got == nil || got.key != 1 {
		t.Fatalf("take(%d) = %+v, want the record put there", a, got)
	}
	if *s.at(a) != nil {
		t.Fatal("a freed slot still pins its record")
	}
	if c := s.put(&clientOp{key: 3}); c != a {
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

// TestCarveListsDoNotOverlap: lists carved from one chunk start empty at their
// full size, and one that outgrows it moves instead of writing into the next.
func TestCarveListsDoNotOverlap(t *testing.T) {
	var chunk []int
	a := carveList(&chunk, 3, 4)
	b := carveList(&chunk, 3, 4)
	if len(a) != 0 || cap(a) != 3 || cap(chunk) != 12 {
		t.Fatalf("list len %d cap %d, chunk cap %d: want 0, 3 and 12", len(a), cap(a), cap(chunk))
	}
	b = append(b, 7, 8, 9)
	a = append(a, 1, 2, 3, 4) // past its capacity
	if b[0] != 7 || b[1] != 8 || b[2] != 9 {
		t.Fatalf("growing one list overwrote its neighbor: %v", b)
	}
	if a[3] != 4 {
		t.Fatalf("grown list %v", a)
	}
}
