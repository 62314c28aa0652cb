package protocol

// slab is a freelist-recycled record store addressed by int32 tokens: put
// parks a value and returns its token, take frees it. A token is the slot
// index plus one, so zero means "none" and the zero slab is ready to use.
// Each slot carries one link, which makes slots intrusive list nodes: a slot
// sits on the freelist or in exactly one list (a FIFO ring under push/detach/
// pop, or a caller-threaded chain through next), never both.
//
// A slab belongs to one Replica — never to the cluster — so under the LP
// engine only the replica's own logical process touches it. It grows
// geometrically by use, not by Keys or Nodes, and take zeroes the slot so a
// recycled record pins no callback or vector clock. put may move the backing
// array: hold tokens, not pointers, across anything that can put.
type slab[T any] struct {
	slots []slot[T]
	free  int32
}

type slot[T any] struct {
	v    T
	next int32
}

func (s *slab[T]) put(v T) int32 {
	if i := s.free; i != 0 {
		sl := &s.slots[i-1]
		s.free = sl.next
		sl.v, sl.next = v, 0
		return i
	}
	s.slots = append(s.slots, slot[T]{v: v})
	return int32(len(s.slots))
}

func (s *slab[T]) at(i int32) *T { return &s.slots[i-1].v }

// next returns the link of slot i for threading a chain by hand.
func (s *slab[T]) next(i int32) *int32 { return &s.slots[i-1].next }

// take frees slot i and returns the value it held.
func (s *slab[T]) take(i int32) T {
	sl := &s.slots[i-1]
	v := sl.v
	var zero T
	sl.v, sl.next = zero, s.free
	s.free = i
	return v
}

// push appends v to the FIFO whose tail token is *tail. The FIFO is a ring
// (the tail links to the head), so one token per list gives O(1) append and
// in-order traversal.
func (s *slab[T]) push(tail *int32, v T) { s.link(tail, s.put(v)) }

// link appends the held slot i, which sits in no list, to the FIFO whose tail
// token is *tail: a record moves between lists without leaving its slot.
func (s *slab[T]) link(tail *int32, i int32) {
	if t := *tail; t != 0 {
		*s.next(i) = *s.next(t)
		*s.next(t) = i
	} else {
		*s.next(i) = i
	}
	*tail = i
}

// detach empties the FIFO at *tail and returns its head token with the ring
// cut open, for a walk by pop. Entries pushed during the walk start a fresh
// FIFO and are not visited.
func (s *slab[T]) detach(tail *int32) (head int32) {
	t := *tail
	if t == 0 {
		return 0
	}
	*tail = 0
	head = *s.next(t)
	*s.next(t) = 0
	return head
}

// pop frees the slot at *head of a detached chain and advances *head.
func (s *slab[T]) pop(head *int32) T {
	i := *head
	*head = *s.next(i)
	return s.take(i)
}

// recordChunk is how many records, or persist-item lists, one allocation
// carves for a replica's recycled pools (clientOp, pendingWrite, txnState,
// transaction and scope lists). The pools are per replica, so a chunk is
// kept small: a large one would strand most of a chunk on each of a big
// cluster's replicas.
const recordChunk = 8

// carve returns a fresh zero record from *chunk, first replacing a full chunk
// with a new one of n records: one allocation serves n first uses. The caller
// recycles the record through its own freelist; the chunk never shrinks.
func carve[T any](chunk *[]T, n int) *T {
	if len(*chunk) == cap(*chunk) {
		*chunk = make([]T, 0, n)
	}
	*chunk = (*chunk)[:len(*chunk)+1]
	return &(*chunk)[len(*chunk)-1]
}

// carveList returns an empty list with room for n elements, carved from
// *chunk, first replacing a chunk without room with a new one of lists such
// lists: a list reaches its full size in one step, and one allocation serves
// lists of them. The list's capacity ends at n, so growing past it moves the
// list rather than overrunning its neighbor.
func carveList[T any](chunk *[]T, n, lists int) []T {
	if len(*chunk)+n > cap(*chunk) {
		*chunk = make([]T, 0, lists*n)
	}
	*chunk = (*chunk)[:len(*chunk)+n]
	return (*chunk)[len(*chunk)-n : len(*chunk)-n : len(*chunk)]
}

// stampSet is a set of stamps threaded through a replica's stampSets slab:
// the token of its first member, 0 when empty. A set holds the unvalidated
// writes of one key, a handful at most, so membership is a walk.
type stampSet int32

type stampSets struct{ slab[Stamp] }

func (s *stampSets) add(set *stampSet, st Stamp) {
	for i := int32(*set); i != 0; i = *s.next(i) {
		if *s.at(i) == st {
			return
		}
	}
	i := s.put(st)
	*s.next(i) = int32(*set)
	*set = stampSet(i)
}

func (s *stampSets) remove(set *stampSet, st Stamp) {
	for p := (*int32)(set); *p != 0; p = s.next(*p) {
		if i := *p; *s.at(i) == st {
			*p = *s.next(i)
			s.take(i)
			return
		}
	}
}
