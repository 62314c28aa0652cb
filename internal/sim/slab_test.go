package sim

import "testing"

type rec struct{ key int }

func TestSlabRecyclesAndZeroes(t *testing.T) {
	var s Slab[*rec]
	a := s.Put(&rec{key: 1})
	b := s.Put(&rec{key: 2})
	if a == 0 || b == 0 || a == b {
		t.Fatalf("tokens %d, %d: want distinct and nonzero", a, b)
	}
	if got := s.Take(a); got == nil || got.key != 1 {
		t.Fatalf("Take(%d) = %+v, want the record put there", a, got)
	}
	if *s.At(a) != nil {
		t.Fatal("a freed slot still pins its record")
	}
	if c := s.Put(&rec{key: 3}); c != a {
		t.Fatalf("Put after Take returned token %d, want the freed %d", c, a)
	}
	if s.Slots() != 2 {
		t.Fatalf("slab grew to %d slots for 2 live records", s.Slots())
	}
	s.Take(b)
	if s.Live() != 1 {
		t.Fatalf("Live() = %d with one of 2 slots freed, want 1", s.Live())
	}
}

// TestSlabFIFO: Push/Detach/Pop walk in insertion order, entries pushed
// during a walk start the next FIFO, and interleaved lists share one slab.
func TestSlabFIFO(t *testing.T) {
	var s Slab[int]
	var x, y int32
	for i := 1; i <= 3; i++ {
		s.Push(&x, i)
		s.Push(&y, 10*i)
	}
	var got []int
	for head := s.Detach(&x); head != 0; {
		v := s.Pop(&head)
		got = append(got, v)
		if v < 3 {
			s.Push(&x, v+100) // re-entrant append
		}
	}
	for head := s.Detach(&x); head != 0; {
		got = append(got, s.Pop(&head))
	}
	for head := s.Detach(&y); head != 0; {
		got = append(got, s.Pop(&head))
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
	if x != 0 || y != 0 || s.Detach(&x) != 0 {
		t.Fatal("drained FIFOs are not empty")
	}
	if s.Slots() > 6 {
		t.Fatalf("slab holds %d slots, want at most the 6 ever live at once", s.Slots())
	}
}

// TestCarveListsDoNotOverlap: lists carved from one chunk start empty at their
// full size, and one that outgrows it moves instead of writing into the next.
func TestCarveListsDoNotOverlap(t *testing.T) {
	var chunk []int
	a := CarveList(&chunk, 3, 4)
	b := CarveList(&chunk, 3, 4)
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

type linked struct {
	key int
	Link[linked]
}

type linkedList = FreeList[linked, *linked]

// TestFreeListReuse: Get hands back the last record Put, as the caller left
// it, and a fresh zero record only when none is spent; Len counts the spent.
func TestFreeListReuse(t *testing.T) {
	var f linkedList
	a, b := f.Get(4), f.Get(4)
	if a == b || a.key != 0 || b.key != 0 {
		t.Fatalf("fresh records %p %+v, %p %+v: want two distinct zero ones", a, *a, b, *b)
	}
	a.key, b.key = 1, 2
	f.Put(a)
	f.Put(b)
	if f.Len() != 2 {
		t.Fatalf("Len = %d after two Puts, want 2", f.Len())
	}
	if got := f.Get(4); got != b || got.key != 2 {
		t.Fatalf("Get = %p %+v, want the last record Put, %p with key 2", got, *got, b)
	}
	if got := f.Get(4); got != a || got.key != 1 {
		t.Fatalf("Get = %p %+v, want %p with key 1", got, *got, a)
	}
	if f.Len() != 0 {
		t.Fatalf("Len = %d with every record out, want 0", f.Len())
	}
}

// TestFreeListAllocs: fresh records cost one allocation per chunk, and
// Reserve(k) makes the next k Gets allocation-free.
func TestFreeListAllocs(t *testing.T) {
	const chunk = 8
	var f linkedList
	if n := testing.AllocsPerRun(10, func() {
		for i := 0; i < 4*chunk; i++ {
			f.Get(chunk)
		}
	}); n != 4 {
		t.Fatalf("%d fresh records cost %.1f allocations, want 4 chunks of %d", 4*chunk, n, chunk)
	}
	const k = 100
	var g linkedList
	var recs [k]*linked
	if n := testing.AllocsPerRun(10, func() {
		g.Reserve(k)
		for i := range recs {
			recs[i] = g.Get(chunk)
		}
	}); n != 1 {
		t.Fatalf("Reserve(%d) and %d Gets cost %.1f allocations, want Reserve's one", k, k, n)
	}
	if n := testing.AllocsPerRun(10, func() {
		for _, r := range recs {
			g.Put(r)
		}
		for i := range recs {
			recs[i] = g.Get(chunk)
		}
	}); n != 0 {
		t.Fatalf("recycling %d records cost %.1f allocations, want 0", k, n)
	}
}
