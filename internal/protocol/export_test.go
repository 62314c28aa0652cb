package protocol

import "fmt"

// KeySlots returns how many keys the replica holds per-key state for.
func (r *Replica) KeySlots() int { return len(r.keys.slots) + len(r.keys.stray) }

// PendingWrites returns how many coordinator-side writes are in flight.
func (r *Replica) PendingWrites() int { return len(r.pending) }

// WatchReceives makes r report every message it receives twice, by its
// dispatch token: when the message parks for its worker-pool service job and
// when its handler reads it. body renders the message's fields (not its box
// refcount) as they read at that moment.
func WatchReceives(r *Replica, f func(tok int32, body string)) {
	r.watch = func(tok int32, p *payload) {
		f(tok, fmt.Sprintf("%v k%d %v scope=%d txn=%d %v chain=%v", p.Kind, p.Key, p.Stamp, p.Scope, p.Txn, p.Cauhist, p.Chain))
	}
}

// ScribbleSpareBoxes reuses every spent box in r's pool for a message with
// another body and history, as the next sends would, and returns them.
func ScribbleSpareBoxes(r *Replica) { scribble(r) }
