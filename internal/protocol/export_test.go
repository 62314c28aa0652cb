package protocol

// KeySlots returns how many keys the replica holds per-key state for.
func (r *Replica) KeySlots() int { return len(r.keys.slots) + len(r.keys.stray) }

// PendingWrites returns how many coordinator-side writes are in flight.
func (r *Replica) PendingWrites() int { return len(r.pending) }
