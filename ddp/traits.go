package ddp

import "repro/internal/core"

// Level is a qualitative rating (low / medium / high) as used in Table 4.
type Level = core.Level

// Rating levels.
const (
	Low    = core.Low
	Medium = core.Medium
	High   = core.High
)

// Traits is the paper's qualitative assessment of one DDP model.
type Traits struct {
	Model            Model
	Durability       Level
	Performance      Level
	Traffic          Level
	WritesOptimized  bool
	ReadsOptimized   bool
	MonotonicReads   bool
	NonStaleReads    bool
	Intuition        Level
	Programmability  Level
	Implementability Level
}

func traitsFromCore(t core.Traits) Traits {
	return Traits{
		Model:            fromCore(t.Model),
		Durability:       t.Durability,
		Performance:      t.Performance,
		Traffic:          t.Traffic,
		WritesOptimized:  t.WritesOptimized,
		ReadsOptimized:   t.ReadsOptimized,
		MonotonicReads:   t.MonotonicReads,
		NonStaleReads:    t.NonStaleReads,
		Intuition:        t.Intuition,
		Programmability:  t.Programmability,
		Implementability: t.Implementability,
	}
}

// TraitsOf returns the paper's Table 4 ratings for m. For models outside
// the paper's ten representative rows, the durability column is derived
// from the paper's reasoning and ok is false.
func TraitsOf(m Model) (t Traits, ok bool) {
	if ct, found := core.TraitsOf(m.toCore()); found {
		return traitsFromCore(ct), true
	}
	return Traits{Model: m, Durability: core.DurabilityOf(m.toCore())}, false
}

// Table4 returns the paper's ten representative rated models, in row order.
func Table4() []Traits {
	var out []Traits
	for _, t := range core.Table4() {
		out = append(out, traitsFromCore(t))
	}
	return out
}

// Durability returns the durability rating for any of the 25 models.
func Durability(m Model) Level { return core.DurabilityOf(m.toCore()) }

// VisibilityPoint describes when an update becomes visible under c
// (Table 2).
func VisibilityPoint(c Consistency) string { return core.VPDescription(c) }

// DurabilityPoint describes when an update becomes durable under p
// (Table 2).
func DurabilityPoint(p Persistency) string { return core.DPDescription(p) }

// Semantics spells out a model's operational rules (write completion, read
// behavior, persist schedule, messages used).
type Semantics = core.Semantics

// Describe derives the operational semantics of m from the same rules row
// the protocol implementation runs by.
func Describe(m Model) Semantics { return core.Describe(m.toCore()) }
