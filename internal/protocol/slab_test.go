package protocol

import "testing"

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
	if b != 0 || s.Slots() != 3 {
		t.Fatalf("b=%d slots=%d, want empty sets over the 3 slots ever live at once", b, s.Slots())
	}
}
