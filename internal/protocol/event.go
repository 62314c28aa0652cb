package protocol

import "fmt"

// Event is one protocol action at a replica, the unit of the protocol trace
// (Deps.Trace). Its Kind says which operands it carries; String renders the
// trace line the paper's timelines (Figures 2-5) show.
type Event struct {
	At    int64 // simulated time, ns
	Node  int   // global id of the acting replica
	Kind  EventKind
	Msg   MsgKind // sends and receives
	Peer  int     // a send's target or a receive's source (global id)
	Key   uint64
	Stamp Stamp // the version applied, persisted or returned
	N     int   // a scan's maximum length
}

// EventKind enumerates the protocol actions a replica traces.
type EventKind uint8

// Event kinds, with the line each renders.
const (
	EvSend             EventKind = iota // "INV -> node 2"
	EvSendAll                           // "INV -> all"
	EvSendGroup                         // "UPD -> group"
	EvRecv                              // "recv ACK (from 1)"
	EvApply                             // "update replica k3=1.0": a version becomes visible
	EvPersist                           // "persist k3=1.0 ...": a write-back is issued
	EvPersistDone                       // "persist k3=1.0 done"
	EvRead                              // "RD k3": a read is served
	EvScan                              // "SCAN k3+10"
	EvRMW                               // "RMW k3"
	EvWrite                             // "WR k3": a write is dispatched
	EvReadReturn                        // "RD k3 returns 1.0"
	EvReadStall                         // "RD k3 stalls": waits for a consistency event
	EvReadStallPersist                  // "RD k3 stalls (persist)": waits for a persist
	EvWriteDone                         // "WR k3 complete"
)

// String renders e as its trace line.
func (e Event) String() string {
	switch e.Kind {
	case EvSend:
		return fmt.Sprintf("%s -> node %d", e.Msg, e.Peer)
	case EvSendAll:
		return fmt.Sprintf("%s -> all", e.Msg)
	case EvSendGroup:
		return fmt.Sprintf("%s -> group", e.Msg)
	case EvRecv:
		return fmt.Sprintf("recv %s (from %d)", e.Msg, e.Peer)
	case EvApply:
		return fmt.Sprintf("update replica k%d=%v", e.Key, e.Stamp)
	case EvPersist:
		return fmt.Sprintf("persist k%d=%v ...", e.Key, e.Stamp)
	case EvPersistDone:
		return fmt.Sprintf("persist k%d=%v done", e.Key, e.Stamp)
	case EvRead:
		return fmt.Sprintf("RD k%d", e.Key)
	case EvScan:
		return fmt.Sprintf("SCAN k%d+%d", e.Key, e.N)
	case EvRMW:
		return fmt.Sprintf("RMW k%d", e.Key)
	case EvWrite:
		return fmt.Sprintf("WR k%d", e.Key)
	case EvReadReturn:
		return fmt.Sprintf("RD k%d returns %v", e.Key, e.Stamp)
	case EvReadStall:
		return fmt.Sprintf("RD k%d stalls", e.Key)
	case EvReadStallPersist:
		return fmt.Sprintf("RD k%d stalls (persist)", e.Key)
	case EvWriteDone:
		return fmt.Sprintf("WR k%d complete", e.Key)
	default:
		return "EVENT?"
	}
}
