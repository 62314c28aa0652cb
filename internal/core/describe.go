package core

import "fmt"

// Semantics spells out one DDP model's operational rules — how its protocol
// completes writes, serves reads, and schedules persists. Every yes/no choice
// in it is read off RulesOf(m), the row internal/protocol's replicas run by.
type Semantics struct {
	Model           Model
	WriteCompletion string   // when the client's write acknowledges
	ReadRule        string   // what a read returns / when it stalls
	PersistSchedule string   // when updates reach NVM
	Messages        []string // the message kinds the protocol uses
}

// Describe derives the operational semantics of m.
func Describe(m Model) Semantics {
	r := RulesOf(m)
	s := Semantics{Model: m}

	// Write completion: Strict persistency overrides the consistency model's.
	switch {
	case r.PersistsBeforeVisible:
		s.WriteCompletion = "only once the update is persisted on every replica (Strict persistency overrides the consistency model's earlier completion)"
	case r.EarlyAck && r.ServesCommitted:
		s.WriteCompletion = "immediately within the transaction; End-Xaction waits for every replica (and the model's persists)"
	case r.EarlyAck:
		s.WriteCompletion = "immediately after the local update and INV broadcast"
	case r.InvAckVal:
		s.WriteCompletion = "after every replica acknowledged the INV and the VAL went out"
	case r.CausalOrder:
		s.WriteCompletion = "immediately after the local update and UPD(+cauhist) broadcast"
	default:
		s.WriteCompletion = "immediately after the local update; UPDs propagate lazily"
	}

	// Read rule.
	switch {
	case r.ReadsStallOnTransient && r.SplitAcks:
		s.ReadRule = "stalls while the key has writes not yet validated for persistency (until VAL_p)"
	case r.ReadsStallOnTransient:
		s.ReadRule = "stalls while the key has unvalidated writes (until VAL)"
	case r.ServesCommitted:
		s.ReadRule = "returns the latest committed version immediately (snapshot flavor); write-write conflicts squash"
	case r.ServesPersisted:
		s.ReadRule = "returns the latest locally persisted version, never stalling"
	case r.ReadsWaitLocalPersist:
		s.ReadRule = "stalls until the latest visible version is locally persisted"
	default:
		s.ReadRule = "returns the latest visible version, never stalling"
	}

	// Persist schedule.
	switch {
	case r.PersistsBeforeVisible:
		s.PersistSchedule = "before the update becomes visible anywhere (coordinator persists before propagating)"
	case r.PersistsInAckPath && r.ServesCommitted:
		s.PersistSchedule = "deferred to transaction end; ENDX completes only when the transaction's writes are durable everywhere"
	case r.PersistsInAckPath:
		s.PersistSchedule = "at each replica's visibility point, inside the acknowledgment path"
	case r.SplitAcks:
		s.PersistSchedule = "in the background immediately after each volatile update; reads enforce completion"
	case r.Persist == PersistAtScope:
		s.PersistSchedule = "batched per scope; the [PERSIST]s barrier persists the scope on every replica"
	default:
		s.PersistSchedule = "lazily, some time after each volatile update"
	}

	// Messages (Table 3).
	if r.InvAckVal {
		s.Messages = append(s.Messages, "INV(+data)")
		// One ACK/VAL pair where a follower's ACK carries its persist, and
		// for a transaction's INITX/ENDX acknowledgments and its commit.
		if r.PersistsInAckPath || r.ServesCommitted {
			s.Messages = append(s.Messages, "ACK", "VAL")
		}
		switch {
		case r.SplitAcks:
			s.Messages = append(s.Messages, "ACK_c", "ACK_p", "VAL_p")
		case !r.PersistsInAckPath:
			s.Messages = append(s.Messages, "ACK_c")
			if !r.ServesCommitted { // a transaction's commit validates its writes
				s.Messages = append(s.Messages, "VAL_c")
			}
		}
		if r.ServesCommitted {
			s.Messages = append(s.Messages, "INITX", "ENDX", "NACK", "ABORTX")
		}
	} else {
		if r.CausalOrder {
			s.Messages = append(s.Messages, "UPD(+cauhist)")
		} else {
			s.Messages = append(s.Messages, "UPD")
		}
		if r.PersistsBeforeVisible {
			s.Messages = append(s.Messages, "ACK_p")
		}
	}
	if r.Persist == PersistAtScope {
		s.Messages = append(s.Messages, "[PERSIST]s", "ACK_p", "VAL_p")
	}
	return s
}

// String renders the semantics as a short reference block.
func (s Semantics) String() string {
	msgs := ""
	for i, m := range s.Messages {
		if i > 0 {
			msgs += ", "
		}
		msgs += m
	}
	return fmt.Sprintf("%s\n  write completes: %s\n  reads:           %s\n  persists:        %s\n  messages:        %s",
		s.Model, s.WriteCompletion, s.ReadRule, s.PersistSchedule, msgs)
}
