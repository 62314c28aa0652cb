package harness

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/core"
)

// scalingSmokeOptions shrinks the scaling grid's cells so the 96-node point
// stays fast under -race.
func scalingSmokeOptions() Options {
	o := DefaultOptions().Quick()
	o.Params.ClientsPerServer = 2
	o.Params.Keys = 128
	o.WarmupNs = 100_000
	o.MeasureNs = 300_000
	return o
}

// TestScalingSmoke runs the full scaling grid at smoke scale and checks the
// study's structural invariants: every curve covers every shard count, the
// single-shard point routes nothing, every multi-shard point forwards
// traffic and busies every shard, and the skew contrast reports a higher
// imbalance under heavy zipfian theta.
func TestScalingSmoke(t *testing.T) {
	res, err := Scaling(scalingSmokeOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 4 {
		t.Fatalf("%d curves, want the 4 corner models", len(res.Curves))
	}
	for _, c := range res.Curves {
		if len(c.Points) != len(scalingShards()) {
			t.Fatalf("%s: %d points, want %d", c.Model, len(c.Points), len(scalingShards()))
		}
		for j := range c.Points {
			p := &c.Points[j]
			if p.Res.Summary.Ops == 0 {
				t.Fatalf("%s shards=%d: no ops", c.Model, p.Shards)
			}
			if p.Nodes != p.Shards*res.RF {
				t.Fatalf("%s shards=%d: %d nodes, want %d", c.Model, p.Shards, p.Nodes, p.Shards*res.RF)
			}
			if p.Shards == 1 && p.Res.Routed != 0 {
				t.Fatalf("%s shards=1 forwarded %d ops", c.Model, p.Res.Routed)
			}
			if p.Shards > 1 {
				if p.Res.Routed == 0 {
					t.Fatalf("%s shards=%d forwarded nothing", c.Model, p.Shards)
				}
				for s, n := range p.Res.ShardOps {
					if n == 0 {
						t.Fatalf("%s shards=%d: shard %d idle", c.Model, p.Shards, s)
					}
				}
			}
		}
	}
	// The skew phase is a placement-ablation ladder per model: hash at both
	// thetas, load at the heavy theta, plus load+replica-reads for the
	// weak-visibility corners.
	idx := 0
	for _, c := range res.Curves {
		uniform := &res.Skew[idx]
		skewed := &res.Skew[idx+1]
		load := &res.Skew[idx+2]
		idx += 3
		if uniform.Placement != "hash" || skewed.Placement != "hash" || load.Placement != "load" {
			t.Fatalf("%s: ablation ladder out of order: %+v %+v %+v",
				c.Model, uniform, skewed, load)
		}
		if si, ui := shardImbalance(skewed.Res), shardImbalance(uniform.Res); si <= ui {
			t.Errorf("%s: theta=%.3f shard imbalance %.2f not above theta=%.3f's %.2f",
				c.Model, skewed.Theta, si, uniform.Theta, ui)
		}
		if gl, gh := groupImbalance(load.Res, res.RF), groupImbalance(skewed.Res, res.RF); gl >= gh {
			t.Errorf("%s: load placement group imbalance %.2f not below hash's %.2f",
				c.Model, gl, gh)
		}
		if !core.RulesOf(c.Model).InvAckVal {
			rr := &res.Skew[idx]
			idx++
			if !rr.ReplicaReads || rr.Placement != "load" {
				t.Fatalf("%s: weak-visibility corner missing its replica-read cell: %+v", c.Model, rr)
			}
			if rr.Res.Summary.Ops == 0 {
				t.Fatalf("%s: replica-read cell ran no ops", c.Model)
			}
		}
	}
	if idx != len(res.Skew) {
		t.Fatalf("%d skew points, ablation ladder accounts for %d", len(res.Skew), idx)
	}

	// Both renderings must produce well-formed output.
	var text bytes.Buffer
	res.WriteText(&text)
	if !strings.Contains(text.String(), "Hot-shard skew") {
		t.Fatal("text rendering missing the skew section")
	}
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	wantRows := 1 + 4*len(scalingShards()) + len(res.Skew)
	if len(rows) != wantRows {
		t.Fatalf("CSV has %d rows, want %d", len(rows), wantRows)
	}
	if got := strings.Join(rows[0], ","); !strings.Contains(got, "shards") || !strings.Contains(got, "nodes") {
		t.Fatalf("CSV header missing topology columns: %s", got)
	}
}

// TestScalingDeterministicAcrossParallelism reruns one corner of the grid
// with different cell- and LP-worker splits: the rendered output must be
// byte-identical (the property CI pins for the whole grid via the cluster
// differential tests).
func TestScalingDeterministicAcrossParallelism(t *testing.T) {
	render := func(parallel, lps int) string {
		o := scalingSmokeOptions()
		o.Parallel = parallel
		o.IntraParallel = lps
		res, err := Scaling(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		res.WriteText(&buf)
		if err := res.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		// WallTime renders in the text table; strip rows down to the stable
		// CSV half for comparison.
		out := buf.String()
		return out[strings.Index(out, "consistency,"):]
	}
	a := render(1, 1)
	b := render(4, 2)
	if a != b {
		t.Fatalf("scaling output depends on worker split:\n--- seq ---\n%s\n--- par ---\n%s", a, b)
	}
}
