package core

// Level is a three-valued qualitative rating used throughout Table 4.
type Level int

// Ratings, ordered.
const (
	Low Level = iota
	Medium
	High
)

func (l Level) String() string {
	switch l {
	case Low:
		return "low"
	case Medium:
		return "medium"
	case High:
		return "high"
	default:
		return "?"
	}
}

// Arrow renders the paper's up/flat/down arrows.
func (l Level) Arrow() string {
	switch l {
	case Low:
		return "↓"
	case Medium:
		return "→"
	case High:
		return "↑"
	default:
		return "?"
	}
}

// Traits captures one row of Table 4: the qualitative properties of a DDP
// model.
type Traits struct {
	Model            Model
	Durability       Level
	WritesOptimized  bool
	ReadsOptimized   bool
	Traffic          Level
	Performance      Level
	MonotonicReads   bool
	NonStaleReads    bool
	Intuition        Level
	Programmability  Level
	Implementability Level
}

// table4 holds the paper's ten representative rows verbatim.
var table4 = []Traits{
	{Model: Model{Linearizable, Synchronous}, Durability: High,
		WritesOptimized: false, ReadsOptimized: false, Traffic: Medium, Performance: Low,
		MonotonicReads: true, NonStaleReads: true, Intuition: High,
		Programmability: High, Implementability: High},
	{Model: Model{ReadEnforcedC, Synchronous}, Durability: Medium,
		WritesOptimized: true, ReadsOptimized: false, Traffic: Medium, Performance: Medium,
		MonotonicReads: true, NonStaleReads: false, Intuition: Medium,
		Programmability: High, Implementability: High},
	{Model: Model{Transactional, Synchronous}, Durability: High,
		WritesOptimized: true, ReadsOptimized: true, Traffic: High, Performance: High,
		MonotonicReads: true, NonStaleReads: true, Intuition: High,
		Programmability: Low, Implementability: Low},
	{Model: Model{Causal, Synchronous}, Durability: Medium,
		WritesOptimized: true, ReadsOptimized: true, Traffic: High, Performance: High,
		MonotonicReads: true, NonStaleReads: false, Intuition: Medium,
		Programmability: High, Implementability: Low},
	{Model: Model{Eventual, Synchronous}, Durability: Low,
		WritesOptimized: true, ReadsOptimized: true, Traffic: Low, Performance: High,
		MonotonicReads: false, NonStaleReads: false, Intuition: Low,
		Programmability: High, Implementability: High},
	{Model: Model{Linearizable, ReadEnforcedP}, Durability: Medium,
		WritesOptimized: true, ReadsOptimized: false, Traffic: High, Performance: Medium,
		MonotonicReads: true, NonStaleReads: false, Intuition: Medium,
		Programmability: High, Implementability: High},
	{Model: Model{Causal, ReadEnforcedP}, Durability: Medium,
		WritesOptimized: true, ReadsOptimized: false, Traffic: High, Performance: High,
		MonotonicReads: true, NonStaleReads: false, Intuition: Medium,
		Programmability: High, Implementability: Low},
	{Model: Model{Linearizable, EventualP}, Durability: Low,
		WritesOptimized: true, ReadsOptimized: true, Traffic: Low, Performance: High,
		MonotonicReads: false, NonStaleReads: false, Intuition: Low,
		Programmability: High, Implementability: High},
	{Model: Model{Linearizable, Scope}, Durability: High,
		WritesOptimized: true, ReadsOptimized: true, Traffic: High, Performance: High,
		MonotonicReads: false, NonStaleReads: false, Intuition: High,
		Programmability: Low, Implementability: Low},
	{Model: Model{Transactional, Scope}, Durability: High,
		WritesOptimized: true, ReadsOptimized: true, Traffic: High, Performance: High,
		MonotonicReads: false, NonStaleReads: false, Intuition: Medium,
		Programmability: Low, Implementability: Low},
}

// Table4 returns the paper's ten representative model ratings, in the
// paper's row order.
func Table4() []Traits {
	out := make([]Traits, len(table4))
	copy(out, table4)
	return out
}

// TraitsOf returns the Table 4 row for m and whether the paper rated it.
func TraitsOf(m Model) (Traits, bool) {
	for _, t := range table4 {
		if t.Model == m {
			return t, true
		}
	}
	return Traits{}, false
}

// DurabilityOf returns the durability rating of any of the 25 models: the
// paper's Table 4 rating where it rated the model, else a read of its rules
// row. A binding that promises its acknowledged (or scope-closed) writes
// durable is High; one whose persists are lazy, or that neither validates a
// write on every replica nor orders its updates causally, is Low; the rest
// are Medium.
func DurabilityOf(m Model) Level {
	if t, ok := TraitsOf(m); ok {
		return t.Durability
	}
	r := RulesOf(m)
	switch {
	case r.AckDurability == DurableAtAck, r.AckDurability == DurableAtScope:
		return High
	case r.Persist == PersistLazy, !r.InvAckVal && !r.CausalOrder:
		return Low
	}
	return Medium
}
