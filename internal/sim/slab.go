package sim

// The simulator's two record recyclers. A hot path that books a record per
// event or per message takes it from one of these, so a steady-state run
// allocates nothing: a Slab when the record is named by an int32 token (an
// event argument, a list link), a FreeList when it is named by a pointer that
// must stay valid while the record is live. A recycler belongs to one
// logical process — a node's, or the one sequential engine's — and is never
// locked: every node the process runs shares it, so it holds about the
// process's peak of records in flight rather than the sum of each node's own
// peak. The Engine's call slab (Engine.Park) serves every worker pool and
// NVM device on the engine, and protocol.Arena every replica. The rule for
// resetting a recycled record stays with its owner.

// Slab is a freelist-recycled record store addressed by int32 tokens: Put
// parks a value and returns its token, Take frees it. A token is the slot
// index plus one, so zero means "none" and the zero Slab is ready to use.
// Each slot carries one link, which makes slots intrusive list nodes: a slot
// sits on the freelist or in exactly one list (a FIFO ring under Push/Detach/
// Pop, or a caller-threaded chain through Next), never both.
//
// It grows geometrically by use, and Take zeroes the slot so a recycled
// record pins nothing. Put may move the backing array: hold tokens, not
// pointers, across anything that can Put.
type Slab[T any] struct {
	slots []slot[T]
	free  int32
}

type slot[T any] struct {
	v    T
	next int32
}

// Put parks v in a free slot and returns its token.
func (s *Slab[T]) Put(v T) int32 {
	if i := s.free; i != 0 {
		sl := &s.slots[i-1]
		s.free = sl.next
		sl.v, sl.next = v, 0
		return i
	}
	s.slots = append(s.slots, slot[T]{v: v})
	return int32(len(s.slots))
}

// At returns the value held at token i.
func (s *Slab[T]) At(i int32) *T { return &s.slots[i-1].v }

// Next returns the link of slot i for threading a chain by hand.
func (s *Slab[T]) Next(i int32) *int32 { return &s.slots[i-1].next }

// Take frees slot i and returns the value it held.
func (s *Slab[T]) Take(i int32) T {
	sl := &s.slots[i-1]
	v := sl.v
	var zero T
	sl.v, sl.next = zero, s.free
	s.free = i
	return v
}

// Slots returns how many slots the slab holds, live or free.
func (s *Slab[T]) Slots() int { return len(s.slots) }

// Live returns how many slots hold a record: Slots less the free ones. It
// walks the freelist.
func (s *Slab[T]) Live() int {
	n := len(s.slots)
	for i := s.free; i != 0; i = s.slots[i-1].next {
		n--
	}
	return n
}

// Push appends v to the FIFO whose tail token is *tail. The FIFO is a ring
// (the tail links to the head), so one token per list gives O(1) append and
// in-order traversal.
func (s *Slab[T]) Push(tail *int32, v T) { s.Link(tail, s.Put(v)) }

// Link appends the held slot i, which sits in no list, to the FIFO whose tail
// token is *tail: a record moves between lists without leaving its slot.
func (s *Slab[T]) Link(tail *int32, i int32) {
	if t := *tail; t != 0 {
		*s.Next(i) = *s.Next(t)
		*s.Next(t) = i
	} else {
		*s.Next(i) = i
	}
	*tail = i
}

// Detach empties the FIFO at *tail and returns its head token with the ring
// cut open, for a walk by Pop. Entries pushed during the walk start a fresh
// FIFO and are not visited.
func (s *Slab[T]) Detach(tail *int32) (head int32) {
	t := *tail
	if t == 0 {
		return 0
	}
	*tail = 0
	head = *s.Next(t)
	*s.Next(t) = 0
	return head
}

// Pop frees the slot at *head of a detached chain and advances *head.
func (s *Slab[T]) Pop(head *int32) T {
	i := *head
	*head = *s.Next(i)
	return s.Take(i)
}

// FreeList recycles records named by pointer: an intrusive LIFO list
// threaded through the Link each record embeds, refilled chunk records per
// allocation. The zero FreeList is ready to use.
type FreeList[T any, P interface {
	*T
	link() **T
}] struct {
	head  *T
	chunk []T
}

// Link threads a FreeList through the records that embed it.
type Link[T any] struct{ next *T }

func (l *Link[T]) link() **T { return &l.next }

// Get returns a spent record exactly as the caller left it or, when none is
// spent, a fresh zero one carved from a chunk of chunk records.
func (f *FreeList[T, P]) Get(chunk int) *T {
	if p := f.head; p != nil {
		f.head = *P(p).link()
		return p
	}
	if len(f.chunk) == cap(f.chunk) {
		f.chunk = make([]T, 0, chunk)
	}
	f.chunk = f.chunk[:len(f.chunk)+1]
	return &f.chunk[len(f.chunk)-1]
}

// Put takes back a spent record. Its contents stay as they are.
func (f *FreeList[T, P]) Put(p *T) {
	*P(p).link() = f.head
	f.head = p
}

// Reserve adds k fresh records to the list in one allocation, so the next k
// Gets allocate nothing.
func (f *FreeList[T, P]) Reserve(k int) {
	recs := make([]T, k)
	for i := range recs {
		f.Put(&recs[i])
	}
}

// Len returns the number of spent records on the list. It walks the list.
func (f *FreeList[T, P]) Len() int {
	n := 0
	for p := f.head; p != nil; p = *P(p).link() {
		n++
	}
	return n
}

// CarveList returns an empty list with room for n elements, carved from
// *chunk, first replacing a chunk without room with a new one of lists such
// lists: a list reaches its full size in one step, and one allocation serves
// lists of them. The list's capacity ends at n, so growing past it moves the
// list rather than overrunning its neighbor.
func CarveList[T any](chunk *[]T, n, lists int) []T {
	if len(*chunk)+n > cap(*chunk) {
		*chunk = make([]T, 0, lists*n)
	}
	*chunk = (*chunk)[:len(*chunk)+n]
	return (*chunk)[len(*chunk)-n : len(*chunk)-n : len(*chunk)]
}
