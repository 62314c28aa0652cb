package protocol

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

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

// TestPendingRecordBytes pins the protocol records that live while an event
// is pending, and the per-key slot every key costs a replica:
//   - a parked continuation's slab slot, 40 B: key, stamp, a 16-B cont and
//     the slot's link (a func() escape slot in cont made it 48);
//   - clientOp, at most 104 B, with its kind, stall flag and 32-bit scan
//     count sharing one word (each in a word of its own made it 120);
//   - keyState, 48 B, with the INV/ACK/VAL round's read-stall state in a
//     12-B side table only those bindings build (inline it made keyState 56).
//
// internal/sim and internal/simnet pin their pending records in tests of the
// same name.
func TestPendingRecordBytes(t *testing.T) {
	var conts sim.Slab[contRec]
	a, b := conts.Put(contRec{}), conts.Put(contRec{})
	if got := uintptr(unsafe.Pointer(conts.At(b))) - uintptr(unsafe.Pointer(conts.At(a))); got != 40 {
		t.Errorf("a continuation slot is %d B, want 40", got)
	}
	if got := unsafe.Sizeof(clientOp{}); got > 104 {
		t.Errorf("clientOp is %d B, want <= 104", got)
	}
	if got := unsafe.Sizeof(keyState{}); got != 48 {
		t.Errorf("keyState is %d B, want 48", got)
	}
	if got := unsafe.Sizeof(transKey{}); got != 12 {
		t.Errorf("transKey is %d B, want 12", got)
	}
}
