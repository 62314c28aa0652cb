package protocol

import "repro/internal/sim"

// recordChunk is how many records, or persist-item lists, one allocation
// carves for a replica's recycled pools (clientOp, pendingWrite, txnState,
// transaction and scope lists). The pools are per replica, so a chunk is
// kept small: a large one would strand most of a chunk on each of a big
// cluster's replicas.
const recordChunk = 8

// stampSet is a set of stamps threaded through a replica's stampSets slab:
// the token of its first member, 0 when empty. A set holds the unvalidated
// writes of one key, a handful at most, so membership is a walk.
type stampSet int32

type stampSets struct{ sim.Slab[Stamp] }

func (s *stampSets) add(set *stampSet, st Stamp) {
	for i := int32(*set); i != 0; i = *s.Next(i) {
		if *s.At(i) == st {
			return
		}
	}
	i := s.Put(st)
	*s.Next(i) = int32(*set)
	*set = stampSet(i)
}

func (s *stampSets) remove(set *stampSet, st Stamp) {
	for p := (*int32)(set); *p != 0; p = s.Next(*p) {
		if i := *p; *s.At(i) == st {
			*p = *s.Next(i)
			s.Take(i)
			return
		}
	}
}
