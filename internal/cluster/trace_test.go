package cluster

import (
	"testing"

	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/protocol"
	"repro/internal/ycsb"
)

// busyTrace runs a traced deep-queue cell of model (3 servers x 20
// closed-loop clients), where many events share a timestamp and reads stall
// on hot keys, and returns its protocol trace.
func busyTrace(t *testing.T, md core.Model) []protocol.Event {
	t.Helper()
	p := params.Default()
	p.Servers = 3
	cfg := Config{
		Model: md, Workload: ycsb.WorkloadA, Params: p,
		Seed: 1, MeasureNs: 150_000, TraceProtocol: true,
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("%s: %v", md, err)
	}
	c.RunTo(cfg.MeasureNs)
	if len(c.Trace) == 0 {
		t.Fatalf("%s: empty trace", md)
	}
	return c.Trace
}

// TestTraceOrdersByTime checks that Cluster.Trace, appended in dispatch order
// and never sorted, is nondecreasing in At on a busy cell of every binding.
func TestTraceOrdersByTime(t *testing.T) {
	for _, md := range core.AllModels() {
		tr := busyTrace(t, md)
		for i := 1; i < len(tr); i++ {
			if tr[i].At < tr[i-1].At {
				t.Fatalf("%s: event %d (%v at %d) precedes its predecessor (%v at %d)",
					md, i, tr[i], tr[i].At, tr[i-1], tr[i-1].At)
			}
		}
	}
}

// TestTraceStableWithinTimestamp checks that events sharing a timestamp keep
// the order their handler emitted them in: a read's stall is traced by the
// same handler call right after the read itself, so it must directly follow
// that read's RD/SCAN/RMW line, at the same node, key and time. Both stall
// kinds must occur, so the check is not vacuous.
func TestTraceStableWithinTimestamp(t *testing.T) {
	seen := map[protocol.EventKind]int{}
	for _, md := range core.AllModels() {
		tr := busyTrace(t, md)
		for i, e := range tr {
			if e.Kind != protocol.EvReadStall && e.Kind != protocol.EvReadStallPersist {
				continue
			}
			seen[e.Kind]++
			if i == 0 {
				t.Fatalf("%s: trace opens with %v", md, e)
			}
			prev := tr[i-1]
			isRead := prev.Kind == protocol.EvRead || prev.Kind == protocol.EvScan || prev.Kind == protocol.EvRMW
			if !isRead || prev.Node != e.Node || prev.Key != e.Key || prev.At != e.At {
				t.Fatalf("%s: event %d (%v at node %d, %d) follows %v at node %d, %d, not its read",
					md, i, e, e.Node, e.At, prev, prev.Node, prev.At)
			}
		}
	}
	for _, k := range []protocol.EventKind{protocol.EvReadStall, protocol.EvReadStallPersist} {
		if seen[k] == 0 {
			t.Errorf("no %v event in any binding's trace", protocol.Event{Kind: k})
		}
	}
}
