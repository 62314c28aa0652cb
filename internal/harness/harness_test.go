package harness

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/recovery"
)

func quick() Options { return DefaultOptions().Quick() }

func TestTable1ShapeHolds(t *testing.T) {
	res, err := Table1(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	if res.Rows[0].Normalized != 1.0 {
		t.Fatalf("baseline not normalized to 1: %g", res.Rows[0].Normalized)
	}
	// The paper's ordering: relaxing each layer increases throughput.
	if !(res.Rows[2].Normalized > res.Rows[1].Normalized && res.Rows[1].Normalized > 1.0) {
		t.Fatalf("ordering violated: %g / %g / %g",
			res.Rows[0].Normalized, res.Rows[1].Normalized, res.Rows[2].Normalized)
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("text output missing title")
	}
}

func TestFigure6CoversAllModels(t *testing.T) {
	f, err := Figure6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cells) != 25 {
		t.Fatalf("cells = %d, want 25", len(f.Cells))
	}
	if got := f.Normalized(core.Baseline, Fig6Throughput); got != 1.0 {
		t.Fatalf("baseline throughput norm = %g, want 1", got)
	}
	// Weak models must beat the baseline; Strict persistency must not.
	evev := f.Normalized(core.Model{C: core.Eventual, P: core.EventualP}, Fig6Throughput)
	if evev <= 1.5 {
		t.Fatalf("<Eventual,Eventual> norm throughput %g, want well above baseline", evev)
	}
	linStrict := f.Normalized(core.Model{C: core.Linearizable, P: core.Strict}, Fig6Throughput)
	if linStrict > 1.05 {
		t.Fatalf("<Linearizable,Strict> should not beat <Linearizable,Synchronous>: %g", linStrict)
	}
	var buf bytes.Buffer
	f.WriteText(&buf)
	for _, frag := range []string{"(a) Throughput", "(f) 95th Percentile Write Latency", "Causal"} {
		if !strings.Contains(buf.String(), frag) {
			t.Fatalf("figure text missing %q", frag)
		}
	}
}

func TestFigure6MetricStrings(t *testing.T) {
	seen := map[string]bool{}
	for m := Fig6Throughput; m <= Fig6P95Write; m++ {
		s := m.String()
		if s == "?" || seen[s] {
			t.Fatalf("bad metric name %q", s)
		}
		seen[s] = true
	}
	if Fig6Metric(99).String() != "?" {
		t.Fatal("unknown metric should render ?")
	}
}

func TestFigure7ClientSweep(t *testing.T) {
	f, err := Figure7(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Points) != 3 || len(f.Labels) != 3 {
		t.Fatalf("points = %d, want 3", len(f.Points))
	}
	// Fewer clients -> higher <Lin, Sync> throughput-per-baseline is the
	// paper's key inversion; at minimum the 10-client point must not
	// collapse to zero and the conflict stat must be present.
	if f.Normalized(0, core.Baseline) <= 0 {
		t.Fatal("10-client point missing")
	}
	if len(f.Extra) == 0 || !strings.Contains(f.Extra[0], "conflict rate") {
		t.Fatalf("missing transactional conflict note: %v", f.Extra)
	}
	var buf bytes.Buffer
	f.WriteText(&buf)
	if !strings.Contains(buf.String(), "10-clients") {
		t.Fatal("sweep labels missing")
	}
}

func TestFigure8NetworkSweep(t *testing.T) {
	f, err := Figure8(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Linearizable slows with RT; compare 0.5us and 2us points.
	fast := f.Normalized(0, core.Baseline)
	slow := f.Normalized(2, core.Baseline)
	if fast <= slow {
		t.Fatalf("<Lin,Sync> should slow with higher RT: 0.5us=%g 2us=%g", fast, slow)
	}
	// Causal is barely affected: the ratio across the sweep stays close.
	causal := core.Model{C: core.Causal, P: core.Synchronous}
	cf, cs := f.Normalized(0, causal), f.Normalized(2, causal)
	if cs == 0 || cf/cs > 1.5 {
		t.Fatalf("causal should be nearly flat across RT sweep: %g vs %g", cf, cs)
	}
}

func TestFigure9WorkloadSweep(t *testing.T) {
	f, err := Figure9(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Read-heavy (B) narrows the spread between models vs write-heavy (W):
	// compare <Causal,Eventual> / <Lin,Strict> ratio across points.
	relaxed := core.Model{C: core.Causal, P: core.EventualP}
	strict := core.Model{C: core.Linearizable, P: core.Strict}
	spreadB := ratio(f.Normalized(0, relaxed), f.Normalized(0, strict))
	spreadW := ratio(f.Normalized(2, relaxed), f.Normalized(2, strict))
	if spreadB >= spreadW {
		t.Fatalf("read-heavy spread (%g) should be below write-heavy spread (%g)", spreadB, spreadW)
	}
}

func TestPaperStatsPlausible(t *testing.T) {
	s, err := PaperStats(quick())
	if err != nil {
		t.Fatal(err)
	}
	if s.EvEvSpeedup <= 1.5 {
		t.Fatalf("EvEv speedup %g too small", s.EvEvSpeedup)
	}
	if s.REREReadConflictRate <= 0 {
		t.Fatal("no read conflicts measured under <RE,RE>")
	}
	if s.CausalSyncBufferPeak < s.CausalEventualBufferPeak {
		t.Fatalf("Sync buffering (%d) should exceed Eventual (%d)",
			s.CausalSyncBufferPeak, s.CausalEventualBufferPeak)
	}
	var buf bytes.Buffer
	s.WriteText(&buf)
	if !strings.Contains(buf.String(), "paper: 3.3x") {
		t.Fatal("stats text missing paper reference")
	}
}

func TestTable4MeasuredVerdicts(t *testing.T) {
	res, err := Table4(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Crash.AckedWrites == 0 {
			t.Fatalf("%s: crash run recorded no writes", r.Traits.Model)
		}
		// The baseline row must measure as fully intuitive.
		if r.Traits.Model == core.Baseline && (!r.Crash.MonotonicReads() || !r.Crash.NonStaleReads()) {
			t.Fatalf("baseline should measure monotonic+non-stale: %+v", r)
		}
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "MeasMono") {
		t.Fatal("table 4 text missing measured columns")
	}
}

func TestDurabilityAuditCoversMatrix(t *testing.T) {
	d, err := DurabilityAudit(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Rows) != 25 {
		t.Fatalf("rows = %d, want 25", len(d.Rows))
	}
	for _, r := range d.Rows {
		if r.Model().P == core.Strict && r.LostAcked != 0 {
			t.Fatalf("%s lost %d acked writes", r.Model(), r.LostAcked)
		}
	}
}

// TestCrashCellsZeroWindowsTakeConfigDefaults checks that a crash cell
// places its instant in the window cluster.New runs, defaults applied: zero
// windows give the report that explicit 1 ms + 5 ms windows give.
func TestCrashCellsZeroWindowsTakeConfigDefaults(t *testing.T) {
	explicit := quick()
	explicit.WarmupNs, explicit.MeasureNs = 1_000_000, 5_000_000
	zero := explicit
	zero.WarmupNs, zero.MeasureNs = 0, 0
	var reps []*recovery.CrashReport
	for _, o := range []Options{explicit, zero} {
		r, err := crashReports(o, []core.Model{{C: core.Eventual, P: core.EventualP}})
		if err != nil {
			t.Fatal(err)
		}
		res := *r[0].Result
		res.WallTime = 0 // the one host-dependent field
		r[0].Result = &res
		reps = append(reps, r[0])
	}
	want, got := reps[0], reps[1]
	if want.AckedWrites == 0 || want.ReadsChecked == 0 || want.DivergentKeys == 0 {
		t.Fatalf("explicit windows: %d writes, %d reads, %d divergent keys; the comparison is vacuous",
			want.AckedWrites, want.ReadsChecked, want.DivergentKeys)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero windows: %d writes, %d reads, %d divergent keys, recovery %d ns; "+
			"explicit 1 ms + 5 ms: %d, %d, %d, %d ns",
			got.AckedWrites, got.ReadsChecked, got.DivergentKeys, got.Timing.TotalNs,
			want.AckedWrites, want.ReadsChecked, want.DivergentKeys, want.Timing.TotalNs)
	}
}

// TestDurabilityCSVMatchesText pins the durability audit's CSV: a header
// and one row per binding, whose acked, lost, recovered-key, monotonic and
// non-stale values are the text table's for the same options.
func TestDurabilityCSVMatchesText(t *testing.T) {
	var csvOut, text bytes.Buffer
	if err := RunNamedCSV(&csvOut, "durability", quick()); err != nil {
		t.Fatal(err)
	}
	if err := RunNamed(&text, "durability", quick()); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&csvOut).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1+25 {
		t.Fatalf("durability csv has %d records, want a header + 25", len(records))
	}
	wantHeader := []string{"consistency", "persistency", "acked", "lost", "lost_rate", "recovered_keys", "monotonic", "non_stale"}
	if !reflect.DeepEqual(records[0], wantHeader) {
		t.Fatalf("csv header %q, want %q", records[0], wantHeader)
	}
	var rows [][]string // text rows: model, acked, lost, rate, keys, mono, nstale
	for _, line := range strings.Split(text.String(), "\n") {
		if !strings.HasPrefix(line, "<") {
			continue
		}
		f := strings.Fields(line)
		n := len(f) - 6
		rows = append(rows, append([]string{strings.Join(f[:n], " ")}, f[n:]...))
	}
	if len(rows) != 25 {
		t.Fatalf("durability text has %d rows, want 25", len(rows))
	}
	yes := map[string]string{"true": "yes", "false": "no"}
	for i, rec := range records[1:] {
		txt := rows[i]
		got := []string{"<" + rec[0] + ", " + rec[1] + ">", rec[2], rec[3], rec[5], yes[rec[6]], yes[rec[7]]}
		want := []string{txt[0], txt[1], txt[2], txt[4], txt[5], txt[6]}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("row %d: csv %q, text %q", i, got, want)
		}
	}
}

func TestWriteTable5(t *testing.T) {
	var buf bytes.Buffer
	WriteTable5(&buf, DefaultOptions().Params)
	for _, frag := range []string{"5 servers", "400 ns write", "200 Gb/s", "Queue pairs"} {
		if !strings.Contains(buf.String(), frag) {
			t.Fatalf("table 5 missing %q in:\n%s", frag, buf.String())
		}
	}
}

func TestRunNamedUnknown(t *testing.T) {
	if err := RunNamed(&bytes.Buffer{}, "nope", quick()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunNamedQuickSmoke(t *testing.T) {
	for _, name := range []string{"table1", "table5"} {
		var buf bytes.Buffer
		if err := RunNamed(&buf, name, quick()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	a, err := Ablations(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(a.Rows))
	}
	for _, r := range a.Rows {
		if r.BaseTp <= 0 || r.AblTp <= 0 {
			t.Fatalf("ablation %s/%s produced zero throughput", r.Model, r.Name)
		}
		// The paper's design should not lose to its ablation.
		if r.Name == "serial propagation" && r.AblTp > r.BaseTp*1.05 {
			t.Fatalf("%s: serial propagation (%g) should not beat broadcast (%g)",
				r.Model, r.AblTp, r.BaseTp)
		}
	}
	var buf bytes.Buffer
	a.WriteText(&buf)
	if !strings.Contains(buf.String(), "serial propagation") {
		t.Fatal("ablation text missing rows")
	}
}

func TestRecoveryTimesQuick(t *testing.T) {
	r, err := RecoveryTimes(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no recovery rows")
	}
	var strictTotal, weakTotal int64
	for _, row := range r.Rows {
		if row.Timing.TotalNs <= 0 {
			t.Fatalf("%s: non-positive recovery time", row.Model())
		}
		switch row.Model() {
		case core.Model{C: core.Linearizable, P: core.Strict}:
			strictTotal = row.Timing.TotalNs
		case core.Model{C: core.Eventual, P: core.EventualP}:
			weakTotal = row.Timing.TotalNs
		}
	}
	if weakTotal <= strictTotal {
		t.Fatalf("weak recovery (%d) should exceed strict (%d)", weakTotal, strictTotal)
	}
	var buf bytes.Buffer
	r.WriteText(&buf)
	if !strings.Contains(buf.String(), "voting") {
		t.Fatal("recovery text missing columns")
	}
}

func TestTimelinesReproduceFigureStructure(t *testing.T) {
	res, err := Timelines(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("timelines = %d, want 8 (Figures 2-5)", len(res.Rows))
	}
	find := func(model core.Model) Timeline {
		for _, r := range res.Rows {
			if r.Model == model {
				return r
			}
		}
		t.Fatalf("missing timeline for %s", model)
		return Timeline{}
	}

	pick := func(trace []protocol.Event, keep func(protocol.Event) bool) []protocol.Event {
		var out []protocol.Event
		for _, e := range trace {
			if keep(e) {
				out = append(out, e)
			}
		}
		return out
	}
	recvACK := func(e protocol.Event) bool { return e.Kind == protocol.EvRecv && e.Msg == protocol.MsgACK }
	writeDone := func(e protocol.Event) bool { return e.Kind == protocol.EvWriteDone && e.Key == 3 }
	carries := func(m protocol.MsgKind) func(protocol.Event) bool {
		return func(e protocol.Event) bool { return e.Msg == m }
	}

	// Figure 2(a): under <Lin, Sync> the write completes only after the
	// ACKs; the events must appear in that order.
	lin := find(core.Baseline).Cluster.Trace
	acks := pick(lin, recvACK)
	completes := pick(lin, writeDone)
	if len(acks) != 2 || len(completes) != 1 {
		t.Fatalf("lin trace wrong: %d acks, %d completes", len(acks), len(completes))
	}
	if completes[0].At < acks[1].At {
		t.Fatal("linearizable write completed before the final ACK")
	}

	// Figure 2(c): under <RE, Sync> the write completes before any ACK.
	re := find(core.Model{C: core.ReadEnforcedC, P: core.Synchronous}).Cluster.Trace
	reAcks := pick(re, recvACK)
	reComplete := pick(re, writeDone)
	if len(reComplete) != 1 || len(reAcks) < 1 {
		t.Fatalf("re trace wrong")
	}
	if reComplete[0].At >= reAcks[0].At {
		t.Fatal("read-enforced write should complete before ACKs return")
	}

	// Figure 4: the transactional timeline must show INITX and ENDX.
	xact := find(core.Model{C: core.Transactional, P: core.Synchronous}).Cluster.Trace
	if len(pick(xact, carries(protocol.MsgINITX))) == 0 || len(pick(xact, carries(protocol.MsgENDX))) == 0 {
		t.Fatal("transaction timeline missing INITX/ENDX")
	}

	// Figure 5: the scope timeline must show the PERSIST barrier.
	scope := find(core.Model{C: core.Linearizable, P: core.Scope}).Cluster.Trace
	if len(pick(scope, carries(protocol.MsgPERSIST))) == 0 {
		t.Fatal("scope timeline missing PERSIST")
	}

	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "coordinator") {
		t.Fatal("timeline rendering missing node headers")
	}
}

// TestTimelineRenderTruncatesLongEvents checks that an event line wider than
// a column is cut to it and keeps its row aligned; no line of the timelines
// fixture is that wide.
func TestTimelineRenderTruncatesLongEvents(t *testing.T) {
	long := protocol.Event{At: 1, Kind: protocol.EvPersistDone, Key: 1 << 40, Stamp: protocol.MakeStamp(1<<30, 3)}
	var buf bytes.Buffer
	renderTimeline(&buf, []protocol.Event{long}, 2)
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 || len(lines[2]) != len(lines[0]) {
		t.Fatalf("long event %q misaligned its row:\n%s", long, buf.String())
	}
	if !strings.Contains(lines[2], long.String()[:26]) {
		t.Fatalf("row lost the event's first column width:\n%s", buf.String())
	}
}

func TestHybridSitsBetweenFlatExtremes(t *testing.T) {
	h, err := Hybrid(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(h.Rows))
	}
	lin, hyb, ev := h.Rows[0].Normalized, h.Rows[1].Normalized, h.Rows[2].Normalized
	if lin != 1.0 {
		t.Fatalf("flat Lin should normalize to 1, got %g", lin)
	}
	if !(hyb >= lin && hyb <= ev*1.05) {
		t.Fatalf("hybrid (%g) should sit between flat Lin (%g) and flat Eventual (%g)", hyb, lin, ev)
	}
	var buf bytes.Buffer
	h.WriteText(&buf)
	if !strings.Contains(buf.String(), "hybrid") {
		t.Fatal("hybrid text missing rows")
	}
}

func TestCheckerVerifiesGuarantees(t *testing.T) {
	res, err := Checker(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r.Model().C == core.Linearizable && !r.Linear.Linearizable() {
			t.Errorf("%s must be linearizable: %s", r.Model(), r.Linear)
		}
		if r.Model().C == core.Eventual && r.Linear.StaleReadViolations == 0 {
			t.Errorf("%s should show stale reads", r.Model())
		}
	}
	var buf bytes.Buffer
	res.WriteText(&buf)
	if !strings.Contains(buf.String(), "staleRate") {
		t.Fatal("checker text missing columns")
	}
}

func TestCSVOutputs(t *testing.T) {
	o := quick()
	f, err := Figure6(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 25 models x 6 metrics
	if len(lines) != 1+25*6 {
		t.Fatalf("fig6 csv lines = %d, want %d", len(lines), 1+25*6)
	}
	if !strings.HasPrefix(lines[0], "consistency,persistency,metric") {
		t.Fatalf("csv header wrong: %q", lines[0])
	}
	// A text-only experiment fails before any of its cells runs.
	var progress bytes.Buffer
	o.Progress = &progress
	if err := RunNamedCSV(&bytes.Buffer{}, "table4", o); err == nil {
		t.Fatal("non-CSV experiment accepted")
	}
	if progress.Len() != 0 {
		t.Fatalf("rejected CSV experiment ran cells:\n%s", progress.String())
	}
}
