// Package core defines the paper's central contribution: the Distributed
// Data Persistency (DDP) model — the binding of a data consistency model
// (which fixes an update's Visibility Point, VP) with a memory persistency
// model (which fixes its Durability Point, DP).
//
// The package encodes Table 2 (VP/DP definitions), the legality and
// semantics of each of the 25 <consistency, persistency> bindings, and the
// paper's Table 4 qualitative trade-off ratings. Model{C, P} is the only
// model space: every layer takes a Model at face value, and Model.Valid
// rejects any code outside the matrix. The runnable protocols for these
// models live in internal/protocol.
package core

import (
	"fmt"
	"strings"
)

// Consistency identifies a data consistency model, ordered from most to
// least strict as in Table 2.
type Consistency int

// The five consistency models the paper combines.
const (
	Linearizable Consistency = iota
	ReadEnforcedC
	Transactional
	Causal
	Eventual
)

// Consistencies lists all consistency models, strictest first.
func Consistencies() []Consistency {
	return []Consistency{Linearizable, ReadEnforcedC, Transactional, Causal, Eventual}
}

func (c Consistency) String() string {
	switch c {
	case Linearizable:
		return "Linearizable"
	case ReadEnforcedC:
		return "Read-Enforced"
	case Transactional:
		return "Transactional"
	case Causal:
		return "Causal"
	case Eventual:
		return "Eventual"
	default:
		return fmt.Sprintf("Consistency(%d)", int(c))
	}
}

// Persistency identifies a memory persistency model, ordered from most to
// least strict as in Table 2.
type Persistency int

// The five persistency models the paper combines.
const (
	Strict Persistency = iota
	Synchronous
	ReadEnforcedP
	Scope
	EventualP
)

// Persistencies lists all persistency models, strictest first.
func Persistencies() []Persistency {
	return []Persistency{Strict, Synchronous, ReadEnforcedP, Scope, EventualP}
}

func (p Persistency) String() string {
	switch p {
	case Strict:
		return "Strict"
	case Synchronous:
		return "Synchronous"
	case ReadEnforcedP:
		return "Read-Enforced"
	case Scope:
		return "Scope"
	case EventualP:
		return "Eventual"
	default:
		return fmt.Sprintf("Persistency(%d)", int(p))
	}
}

// Model is a DDP model: a consistency model bound to a persistency model.
// The paper writes it <consistency, persistency>.
type Model struct {
	C Consistency
	P Persistency
}

// String renders the paper's <C, P> notation.
func (m Model) String() string {
	return fmt.Sprintf("<%s, %s>", m.C, m.P)
}

// Valid reports whether m is one of the 25 cells of the matrix.
func (m Model) Valid() bool {
	return m.C >= Linearizable && m.C <= Eventual && m.P >= Strict && m.P <= EventualP
}

// AllModels enumerates the full 5x5 matrix, consistency-major (the order of
// Figure 6's groups).
func AllModels() []Model {
	var out []Model
	for _, c := range Consistencies() {
		for _, p := range Persistencies() {
			out = append(out, Model{C: c, P: p})
		}
	}
	return out
}

// Baseline is the model every plot normalizes to: <Linearizable, Synchronous>.
var Baseline = Model{C: Linearizable, P: Synchronous}

// ParseModel accepts "<Causal, Synchronous>", "Causal,Synchronous" or
// "causal/synchronous" style names.
func ParseModel(s string) (Model, error) {
	t := strings.NewReplacer("<", "", ">", "", " ", "").Replace(s)
	t = strings.ReplaceAll(t, "/", ",")
	parts := strings.Split(t, ",")
	if len(parts) != 2 {
		return Model{}, fmt.Errorf("core: cannot parse model %q: want <consistency, persistency>", s)
	}
	c, err := ParseConsistency(parts[0])
	if err != nil {
		return Model{}, err
	}
	p, err := ParsePersistency(parts[1])
	if err != nil {
		return Model{}, err
	}
	return Model{C: c, P: p}, nil
}

// ParseConsistency resolves a consistency model by (case-insensitive) name.
func ParseConsistency(s string) (Consistency, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "linearizable", "linear", "lin":
		return Linearizable, nil
	case "read-enforced", "readenforced", "re":
		return ReadEnforcedC, nil
	case "transactional", "xactional", "xact":
		return Transactional, nil
	case "causal":
		return Causal, nil
	case "eventual":
		return Eventual, nil
	default:
		return 0, fmt.Errorf("core: unknown consistency model %q", s)
	}
}

// ParsePersistency resolves a persistency model by (case-insensitive) name.
func ParsePersistency(s string) (Persistency, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "strict":
		return Strict, nil
	case "synchronous", "sync":
		return Synchronous, nil
	case "read-enforced", "readenforced", "re":
		return ReadEnforcedP, nil
	case "scope":
		return Scope, nil
	case "eventual":
		return EventualP, nil
	default:
		return 0, fmt.Errorf("core: unknown persistency model %q", s)
	}
}

// VPDescription returns Table 2's Visibility Point definition for c.
func VPDescription(c Consistency) string {
	switch c {
	case Linearizable:
		return "wrt all nodes: when the update takes place"
	case ReadEnforcedC:
		return "wrt all nodes: before the update is read"
	case Transactional:
		return "wrt all nodes: at the transaction end"
	case Causal:
		return "wrt a node: after the VPs wrt the same node of all the updates in the happens-before history"
	case Eventual:
		return "wrt a node: sometime in the future"
	default:
		return "unknown"
	}
}

// DPDescription returns Table 2's Durability Point definition for p.
func DPDescription(p Persistency) string {
	switch p {
	case Strict:
		return "when the update takes place"
	case Synchronous:
		return "at the visibility point of the update"
	case ReadEnforcedP:
		return "before the update is read"
	case Scope:
		return "before or at the scope end"
	case EventualP:
		return "sometime in the future"
	default:
		return "unknown"
	}
}

// UsesInvAckVal reports whether the consistency model runs the
// INV/ACK/VAL broadcast protocol (strong models) rather than lazy UPDs.
func UsesInvAckVal(c Consistency) bool {
	switch c {
	case Linearizable, ReadEnforcedC, Transactional:
		return true
	}
	return false
}

// CarriesCausalHistory reports whether UPD messages carry a cauhist.
func CarriesCausalHistory(c Consistency) bool { return c == Causal }
