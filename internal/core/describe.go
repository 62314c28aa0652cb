package core

import "fmt"

// Semantics spells out one DDP model's operational rules — how its protocol
// completes writes, serves reads, and schedules persists. It is derived
// mechanically from the model's VP/DP bindings, so it always matches what
// internal/protocol implements.
type Semantics struct {
	Model           Model
	WriteCompletion string   // when the client's write acknowledges
	ReadRule        string   // what a read returns / when it stalls
	PersistSchedule string   // when updates reach NVM
	Messages        []string // the message kinds the protocol uses
}

// Describe derives the operational semantics of m.
func Describe(m Model) Semantics {
	s := Semantics{Model: m}

	// Write completion: consistency first, persistency may strengthen it.
	switch m.C {
	case Linearizable:
		s.WriteCompletion = "after every replica acknowledged the INV and the VAL went out"
	case ReadEnforcedC:
		s.WriteCompletion = "immediately after the local update and INV broadcast"
	case Transactional:
		s.WriteCompletion = "immediately within the transaction; End-Xaction waits for every replica (and the model's persists)"
	case Causal:
		s.WriteCompletion = "immediately after the local update and UPD(+cauhist) broadcast"
	case Eventual:
		s.WriteCompletion = "immediately after the local update; UPDs propagate lazily"
	}
	if m.P == Strict {
		s.WriteCompletion = "only once the update is persisted on every replica (Strict persistency overrides the consistency model's earlier completion)"
	}

	// Read rule.
	switch m.C {
	case Linearizable, ReadEnforcedC:
		switch m.P {
		case ReadEnforcedP:
			s.ReadRule = "stalls while the key has writes not yet validated for persistency (until VAL_p)"
		default:
			s.ReadRule = "stalls while the key has unvalidated writes (until VAL)"
		}
	case Transactional:
		s.ReadRule = "returns the latest committed version immediately (snapshot flavor); write-write conflicts squash"
	case Causal, Eventual:
		switch m.P {
		case Synchronous, Strict:
			s.ReadRule = "returns the latest locally persisted version, never stalling"
		case ReadEnforcedP:
			s.ReadRule = "stalls until the latest visible version is locally persisted"
		default:
			s.ReadRule = "returns the latest visible version, never stalling"
		}
	}

	// Persist schedule.
	switch m.P {
	case Strict:
		s.PersistSchedule = "before the update becomes visible anywhere (coordinator persists before propagating)"
	case Synchronous:
		if m.C == Transactional {
			s.PersistSchedule = "deferred to transaction end; ENDX completes only when the transaction's writes are durable everywhere"
		} else {
			s.PersistSchedule = "at each replica's visibility point, inside the acknowledgment path"
		}
	case ReadEnforcedP:
		s.PersistSchedule = "in the background immediately after each volatile update; reads enforce completion"
	case Scope:
		s.PersistSchedule = "batched per scope; the [PERSIST]s barrier persists the scope on every replica"
	case EventualP:
		s.PersistSchedule = "lazily, some time after each volatile update"
	}

	// Messages.
	if UsesInvAckVal(m.C) {
		s.Messages = append(s.Messages, "INV(+data)")
		switch m.P {
		case ReadEnforcedP:
			s.Messages = append(s.Messages, "ACK_c", "ACK_p", "VAL_p")
		case Strict, Synchronous:
			s.Messages = append(s.Messages, "ACK", "VAL")
		default:
			s.Messages = append(s.Messages, "ACK_c", "VAL_c")
		}
		if m.C == Transactional {
			s.Messages = append(s.Messages, "INITX", "ENDX", "NACK", "ABORTX")
		}
	} else {
		if m.C == Causal {
			s.Messages = append(s.Messages, "UPD(+cauhist)")
		} else {
			s.Messages = append(s.Messages, "UPD")
		}
		if m.P == Strict {
			s.Messages = append(s.Messages, "ACK_p")
		}
	}
	if m.P == Scope {
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
