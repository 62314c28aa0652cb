package cluster

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/protocol"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

var updateFingerprint = flag.Bool("update", false, "rewrite the testdata fixtures of the fingerprint tests that run")

// fingerprint renders the exact counters of one run: every one of them is a
// sum over the whole dispatch order, so a reordered event moves at least one
// even when every ratio the goldens render to two decimals holds.
func fingerprint(r *Result) string {
	return fmt.Sprintf("events=%d overflow=%d maxpending=%d ingress=%d ops=%d readsum=%d writesum=%d msgs=%d bytes=%d nvm=%d",
		r.Events, r.Sched.Overflow, r.Sched.MaxPending, r.Sched.Ingress,
		r.Summary.Ops, r.ReadHist.Sum(), r.WriteHist.Sum(),
		r.NetMessages, r.NetBytes, r.DevSchedComps)
}

// TestScheduleFingerprint pins the exact schedule counters of 53 cells: all
// 25 bindings on a deep-queue flat cell (3 servers x 20 closed-loop clients),
// one 16-shard cell, one open-loop cell, the 16-shard cell again under
// <Linearizable, Synchronous>, the only sharded strong cell, and all 25
// bindings on a single server, where a strong write has no follower to wait
// for and every round closes at its coordinator. A change that only moves
// events in dispatch order — a queue discipline, a tie-break, a scheduler
// shortcut — fails here even when it leaves every rendered golden digit in
// place. Rewrite the fixture with -update only for a change that means to
// move the schedule, and say so.
func TestScheduleFingerprint(t *testing.T) {
	type cell struct {
		name string
		cfg  Config
	}
	deep := params.Default()
	deep.Servers = 3
	var cells []cell
	for _, md := range core.AllModels() {
		cells = append(cells, cell{"flat3x20 " + md.String(), Config{
			Model: md, Workload: ycsb.WorkloadA, Params: deep,
			Seed: 1, WarmupNs: 100_000, MeasureNs: 150_000,
		}})
	}
	strong16 := sharded16Cell(100_000, 200_000)
	strong16.Model = core.Model{C: core.Linearizable, P: core.Synchronous}
	cells = append(cells,
		cell{"sharded16 <Eventual, Eventual>", sharded16Cell(100_000, 200_000)},
		cell{"openloop <Linearizable, Synchronous>", openLoopCell(100_000, 500_000)},
		cell{"sharded16 <Linearizable, Synchronous>", strong16})
	solo := params.Default()
	solo.Servers = 1
	for _, md := range core.AllModels() {
		cells = append(cells, cell{"solo1x20 " + md.String(), Config{
			Model: md, Workload: ycsb.WorkloadA, Params: solo,
			Seed: 1, WarmupNs: 100_000, MeasureNs: 150_000,
		}})
	}

	var b strings.Builder
	for _, c := range cells {
		res, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s: %s\n", c.name, fingerprint(res))
	}
	matchFixture(t, "schedule_fingerprint.txt", "schedule moved", b.String())
}

// TestTraceOrderFingerprint pins, per binding, the order in which the
// replicas of a small cell (3 servers x 4 clients, 100 us) send messages and
// issue device writes: a hash of the protocol trace, every event in dispatch
// order, which the test also requires to be nondecreasing in time. Two calls of one handler that schedule events at different
// times can be swapped without moving TestScheduleFingerprint's counters;
// the trace records the calls themselves. The hybrid rows run the
// Linearizable and Read-Enforced bindings other than Scope (Validate refuses
// hybrid groups under Scope persistency) on 4 servers in two groups, so the
// strong models' handler for a remote group's lazy UPD is pinned too, and
// again on 6 servers in three groups and in two groups under
// SerialPropagation.
func TestTraceOrderFingerprint(t *testing.T) {
	var b strings.Builder
	trace := func(label string, cfg Config) {
		cfg.WarmupNs, cfg.MeasureNs = 0, 100_000
		cfg.TraceProtocol = true
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		c.RunTo(cfg.MeasureNs)
		h := fnv.New64a()
		for i, e := range c.Trace {
			if i > 0 && e.At < c.Trace[i-1].At {
				t.Fatalf("%s: event %d (%v at %d) precedes its predecessor at %d", label, i, e, e.At, c.Trace[i-1].At)
			}
			fmt.Fprintf(h, "%d %d %v\n", e.At, e.Node, e)
		}
		fmt.Fprintf(&b, "%s: events=%d trace=%016x\n", label, len(c.Trace), h.Sum64())
	}
	for _, md := range core.AllModels() {
		trace(md.String(), smallConfig(md))
	}
	for _, md := range core.AllModels() {
		if md.C != core.Linearizable && md.C != core.ReadEnforcedC || md.P == core.Scope {
			continue
		}
		cfg := smallConfig(md)
		cfg.Params.Servers, cfg.Params.Groups = 4, 2
		trace("hybrid 2x2 "+md.String(), cfg)
	}
	// Two more hybrid shapes: three groups of two, where the middle group
	// ships its lazy UPDs to a remote block on each side, and two groups of
	// three under SerialPropagation, where the INV travels a three-node ring.
	for _, md := range core.AllModels() {
		if md.C != core.Linearizable && md.C != core.ReadEnforcedC || md.P == core.Scope {
			continue
		}
		cfg := smallConfig(md)
		cfg.Params.Servers, cfg.Params.Groups = 6, 3
		trace("hybrid 3x2 "+md.String(), cfg)
		cfg.Params.Groups, cfg.Params.SerialPropagation = 2, true
		trace("hybrid 2x3 serial "+md.String(), cfg)
	}
	matchFixture(t, "trace_order_fingerprint.txt", "trace order moved", b.String())
}

// TestTracingDoesNotPerturbRun checks that the protocol trace only observes:
// every binding's small cell, with histories tracked, runs the same events to
// the same results, counters and histories with TraceProtocol on and off.
func TestTracingDoesNotPerturbRun(t *testing.T) {
	type observed struct {
		Events      uint64
		Summary     stats.Summary
		Protocol    protocol.Metrics
		NetMessages uint64
		Writes      []WriteRecord
		Reads       []ReadRecord
	}
	for _, md := range core.AllModels() {
		var runs [2]observed
		for i, traced := range []bool{false, true} {
			cfg := smallConfig(md)
			cfg.TrackHistory, cfg.TraceProtocol = true, traced
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", md, err)
			}
			runs[i] = observed{res.Events, res.Summary, res.Protocol, res.NetMessages, res.Writes, res.Reads}
		}
		if !reflect.DeepEqual(runs[0], runs[1]) {
			t.Errorf("%s: tracing moved the run:\n untraced %+v\n traced   %+v", md, runs[0], runs[1])
		}
	}
}

// matchFixture compares got line by line with testdata/name, or rewrites the
// fixture under -update.
func matchFixture(t *testing.T, name, moved, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateFingerprint {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("fingerprint has %d lines, fixture %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s:\n got  %s\n want %s", moved, gotLines[i], wantLines[i])
		}
	}
}
