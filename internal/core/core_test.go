package core

import (
	"strings"
	"testing"
)

func TestStringNames(t *testing.T) {
	if Linearizable.String() != "Linearizable" || EventualP.String() != "Eventual" {
		t.Fatal("model names wrong")
	}
	m := Model{Causal, Synchronous}
	if m.String() != "<Causal, Synchronous>" {
		t.Fatalf("model string = %q", m.String())
	}
	if !strings.Contains(Consistency(99).String(), "99") {
		t.Fatal("unknown consistency should render its number")
	}
	if !strings.Contains(Persistency(99).String(), "99") {
		t.Fatal("unknown persistency should render its number")
	}
}

func TestAllModelsIs25AndUnique(t *testing.T) {
	all := AllModels()
	if len(all) != 25 {
		t.Fatalf("AllModels = %d entries, want 25", len(all))
	}
	seen := map[Model]bool{}
	for _, m := range all {
		if seen[m] {
			t.Fatalf("duplicate model %s", m)
		}
		if !m.Valid() {
			t.Fatalf("%s is a matrix cell but not Valid", m)
		}
		seen[m] = true
	}
	if all[0] != (Model{Linearizable, Strict}) {
		t.Fatalf("first model = %s, want <Linearizable, Strict>", all[0])
	}
	for _, m := range []Model{{C: 7}, {P: -1}, {C: -1, P: Strict}, {C: Eventual, P: EventualP + 1}, {C: 1000, P: 1000}} {
		if m.Valid() {
			t.Fatalf("%s lies outside the matrix but is Valid", m)
		}
	}
}

func TestParseModel(t *testing.T) {
	cases := map[string]Model{
		"<Causal, Synchronous>":        {Causal, Synchronous},
		"linearizable,strict":          {Linearizable, Strict},
		"xact/scope":                   {Transactional, Scope},
		"re,re":                        {ReadEnforcedC, ReadEnforcedP},
		"Eventual , Eventual":          {Eventual, EventualP},
		"<Read-Enforced, Eventual>":    {ReadEnforcedC, EventualP},
		"<Linearizable,Read-Enforced>": {Linearizable, ReadEnforcedP},
	}
	for in, want := range cases {
		got, err := ParseModel(in)
		if err != nil {
			t.Fatalf("ParseModel(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseModel(%q) = %s, want %s", in, got, want)
		}
	}
	for _, bad := range []string{"", "causal", "a,b,c", "nope,sync", "causal,nope"} {
		if _, err := ParseModel(bad); err == nil {
			t.Fatalf("ParseModel(%q) should fail", bad)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	for _, m := range AllModels() {
		got, err := ParseModel(m.String())
		if err != nil {
			t.Fatalf("round trip %s: %v", m, err)
		}
		if got != m {
			t.Fatalf("round trip %s = %s", m, got)
		}
	}
}

func TestVPAndDPDescriptionsComplete(t *testing.T) {
	for _, c := range Consistencies() {
		if d := VPDescription(c); d == "" || d == "unknown" {
			t.Fatalf("missing VP description for %s", c)
		}
	}
	for _, p := range Persistencies() {
		if d := DPDescription(p); d == "" || d == "unknown" {
			t.Fatalf("missing DP description for %s", p)
		}
	}
	// Spot-check Table 2 wording anchors.
	if !strings.Contains(VPDescription(Transactional), "transaction end") {
		t.Fatal("transactional VP should mention transaction end")
	}
	if !strings.Contains(DPDescription(Synchronous), "visibility point") {
		t.Fatal("synchronous DP should reference the VP")
	}
}

// TestProtocolClassPredicates checks that the protocol class is a property
// of the consistency model alone: the strong models run INV/ACK/VAL under
// every persistency model, the weak ones never do, and only Causal's UPDs
// carry a cauhist.
func TestProtocolClassPredicates(t *testing.T) {
	for _, m := range AllModels() {
		strong := m.C == Linearizable || m.C == ReadEnforcedC || m.C == Transactional
		if got := RulesOf(m).InvAckVal; got != strong {
			t.Fatalf("%s: InvAckVal = %v, want %v", m, got, strong)
		}
		cauhist := false
		for _, msg := range Describe(m).Messages {
			cauhist = cauhist || msg == "UPD(+cauhist)"
		}
		if cauhist != (m.C == Causal) {
			t.Fatalf("%s: UPD carries a cauhist = %v, want %v", m, cauhist, m.C == Causal)
		}
	}
}

func TestTable4HasTenRowsMatchingPaper(t *testing.T) {
	rows := Table4()
	if len(rows) != 10 {
		t.Fatalf("Table4 rows = %d, want 10", len(rows))
	}
	// Row 1: <Linearizable, Synchronous> — high durability, low performance,
	// fully intuitive.
	r1 := rows[0]
	if r1.Model != Baseline || r1.Durability != High || r1.Performance != Low ||
		!r1.MonotonicReads || !r1.NonStaleReads || r1.Intuition != High {
		t.Fatalf("row 1 wrong: %+v", r1)
	}
	// Row 5: <Eventual, Synchronous> — low durability, high performance, low
	// intuition.
	r5 := rows[4]
	if r5.Model != (Model{Eventual, Synchronous}) || r5.Durability != Low ||
		r5.Performance != High || r5.Intuition != Low {
		t.Fatalf("row 5 wrong: %+v", r5)
	}
	// Row 9: <Linearizable, Scope> — high durability, high performance, low
	// programmability and implementability.
	r9 := rows[8]
	if r9.Model != (Model{Linearizable, Scope}) || r9.Durability != High ||
		r9.Programmability != Low || r9.Implementability != Low {
		t.Fatalf("row 9 wrong: %+v", r9)
	}
}

func TestTraitsOf(t *testing.T) {
	if _, ok := TraitsOf(Model{Causal, Synchronous}); !ok {
		t.Fatal("<Causal, Synchronous> should be a rated row")
	}
	if _, ok := TraitsOf(Model{Eventual, Strict}); ok {
		t.Fatal("<Eventual, Strict> is not in Table 4")
	}
	// Returned copy must not alias the internal table.
	rows := Table4()
	rows[0].Durability = Low
	if r, _ := TraitsOf(Baseline); r.Durability != High {
		t.Fatal("Table4 returned aliased storage")
	}
}

func TestDurabilityOfDerivation(t *testing.T) {
	cases := map[Model]Level{
		{Linearizable, Strict}:      High,
		{Eventual, Strict}:          High,
		{Linearizable, Synchronous}: High,   // table row
		{Causal, Synchronous}:       Medium, // table row
		{Eventual, Synchronous}:     Low,    // table row
		{Causal, ReadEnforcedP}:     Medium, // table row
		{Eventual, ReadEnforcedP}:   Low,
		{Causal, Scope}:             High,
		{Causal, EventualP}:         Low,
		{Transactional, EventualP}:  Low,
	}
	for m, want := range cases {
		if got := DurabilityOf(m); got != want {
			t.Fatalf("DurabilityOf(%s) = %s, want %s", m, got, want)
		}
	}
}

func TestLevelStrings(t *testing.T) {
	if Low.String() != "low" || Medium.Arrow() != "→" || High.Arrow() != "↑" {
		t.Fatal("level rendering wrong")
	}
	if Level(9).String() != "?" || Level(9).Arrow() != "?" {
		t.Fatal("unknown level rendering wrong")
	}
}

func TestDescribeCoversAllModels(t *testing.T) {
	for _, m := range AllModels() {
		s := Describe(m)
		if s.WriteCompletion == "" || s.ReadRule == "" || s.PersistSchedule == "" {
			t.Fatalf("%s: incomplete semantics: %+v", m, s)
		}
		if len(s.Messages) == 0 {
			t.Fatalf("%s: no messages listed", m)
		}
		if !strings.Contains(s.String(), "write completes") {
			t.Fatalf("%s: rendering broken", m)
		}
	}
	// Spot checks anchoring to the paper's figures.
	if s := Describe(Model{Linearizable, ReadEnforcedP}); !strings.Contains(s.ReadRule, "VAL_p") {
		t.Fatalf("Lin+REP read rule wrong: %s", s.ReadRule)
	}
	if s := Describe(Model{Causal, Synchronous}); !strings.Contains(s.ReadRule, "persisted") {
		t.Fatalf("Causal+Sync read rule wrong: %s", s.ReadRule)
	}
	if s := Describe(Model{Eventual, Strict}); !strings.Contains(s.WriteCompletion, "Strict persistency overrides") {
		t.Fatalf("Ev+Strict write rule wrong: %s", s.WriteCompletion)
	}
}

// TestAckDurabilityOf pins the durable-at-ack rule for all 25 pairs.
func TestAckDurabilityOf(t *testing.T) {
	for _, m := range AllModels() {
		want := NotDurableAtAck
		switch {
		case m.P == Strict, m == Baseline, m == (Model{Transactional, Synchronous}):
			want = DurableAtAck
		case m.P == Scope:
			want = DurableAtScope
		}
		if got := RulesOf(m).AckDurability; got != want {
			t.Errorf("RulesOf(%s).AckDurability = %d, want %d", m, got, want)
		}
	}
}

// TestRulesTable pins RulesOf for all 25 bindings. The rows were taken from
// the per-model policy methods and the durable-at-ack rule that RulesOf
// replaced, so a rule that moves is a protocol change, not a refactor.
// Columns, in order: InvAckVal, ReadsStallOnTransient, EarlyAck,
// ServesCommitted, SplitAcks, PersistsAtTxnBoundaries, ServesPersisted,
// ReadsWaitLocalPersist, WeakWriteWaitsPersists (1 = true).
func TestRulesTable(t *testing.T) {
	const (
		no    = NotDurableAtAck
		ack   = DurableAtAck
		scope = DurableAtScope
	)
	rows := []struct {
		m     Model
		flags string
		dur   AckDurability
	}{
		{Model{Linearizable, Strict}, "110001001", ack},
		{Model{Linearizable, Synchronous}, "110001000", ack},
		{Model{Linearizable, ReadEnforcedP}, "110010000", no},
		{Model{Linearizable, Scope}, "110000000", scope},
		{Model{Linearizable, EventualP}, "110000000", no},
		{Model{ReadEnforcedC, Strict}, "110001001", ack},
		{Model{ReadEnforcedC, Synchronous}, "111001000", no},
		{Model{ReadEnforcedC, ReadEnforcedP}, "111010000", no},
		{Model{ReadEnforcedC, Scope}, "111000000", scope},
		{Model{ReadEnforcedC, EventualP}, "111000000", no},
		{Model{Transactional, Strict}, "100101001", ack},
		{Model{Transactional, Synchronous}, "101101000", ack},
		{Model{Transactional, ReadEnforcedP}, "101110000", no},
		{Model{Transactional, Scope}, "101100000", scope},
		{Model{Transactional, EventualP}, "101100000", no},
		{Model{Causal, Strict}, "000001101", ack},
		{Model{Causal, Synchronous}, "000001100", no},
		{Model{Causal, ReadEnforcedP}, "000010010", no},
		{Model{Causal, Scope}, "000000000", scope},
		{Model{Causal, EventualP}, "000000000", no},
		{Model{Eventual, Strict}, "000001101", ack},
		{Model{Eventual, Synchronous}, "000001100", no},
		{Model{Eventual, ReadEnforcedP}, "000010010", no},
		{Model{Eventual, Scope}, "000000000", scope},
		{Model{Eventual, EventualP}, "000000000", no},
	}
	if len(rows) != len(AllModels()) {
		t.Fatalf("table has %d rows, want one per binding (%d)", len(rows), len(AllModels()))
	}
	for _, row := range rows {
		f := func(i int) bool { return row.flags[i] == '1' }
		want := Rules{
			InvAckVal:               f(0),
			ReadsStallOnTransient:   f(1),
			EarlyAck:                f(2),
			ServesCommitted:         f(3),
			SplitAcks:               f(4),
			PersistsAtTxnBoundaries: f(5),
			ServesPersisted:         f(6),
			ReadsWaitLocalPersist:   f(7),
			WeakWriteWaitsPersists:  f(8),
			AckDurability:           row.dur,
		}
		if got := RulesOf(row.m); got != want {
			t.Errorf("RulesOf(%s) =\n  %+v\nwant\n  %+v", row.m, got, want)
		}
	}
}
