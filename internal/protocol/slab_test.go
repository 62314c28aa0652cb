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
//   - keyState, 24 B: the key's two versions and its busy token (with the
//     write-back state inline it was 48, and the INV/ACK/VAL bindings' 12-B
//     read-stall side table came on top);
//   - a busy record's slab slot, 48 B: what a key holds only while something
//     is in flight on it, and the slot's link.
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
	if got := unsafe.Sizeof(keyState{}); got != 24 {
		t.Errorf("keyState is %d B, want 24", got)
	}
	var busy sim.Slab[busyKey]
	a, b = busy.Put(busyKey{}), busy.Put(busyKey{})
	if got := uintptr(unsafe.Pointer(busy.At(b))) - uintptr(unsafe.Pointer(busy.At(a))); got != 48 {
		t.Errorf("a busy record's slot is %d B, want 48", got)
	}
}
