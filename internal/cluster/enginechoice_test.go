package cluster_test

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/recovery"
	"repro/internal/ycsb"
)

// TestEngineChoiceFingerprint pins what the Engine knob changes: the exact
// schedule counters of every engine under YCSB-A and YCSB-E (scans traverse
// the store in the engine's order) on the small flat cell in three bindings
// and on the 16-shard cell, and for every engine the versions a full and a
// partial crash recover. No benchmark cell or golden sets Engine, so this
// fixture is the only one that does. Rewrite it with -update only for a
// change that means to move what an engine costs or serves, and say so.
func TestEngineChoiceFingerprint(t *testing.T) {
	models := []core.Model{
		{C: core.Causal, P: core.Synchronous},
		{C: core.Eventual, P: core.EventualP},
		{C: core.Linearizable, P: core.Strict},
	}
	var b strings.Builder
	for _, name := range engines.Names() {
		for _, w := range []ycsb.Workload{ycsb.WorkloadA, ycsb.WorkloadE} {
			for _, m := range models {
				cfg := cluster.SmallConfig(m)
				cfg.Engine, cfg.Workload = name, w
				line(t, &b, fmt.Sprintf("%s %s small %s", name, w.Name, m), cfg)
			}
			cfg := cluster.Sharded16Cell(100_000, 200_000)
			cfg.Engine, cfg.Workload = name, w
			line(t, &b, fmt.Sprintf("%s %s sharded16 %s", name, w.Name, cfg.Model), cfg)
		}
		cfg := cluster.SmallConfig(core.Model{C: core.Eventual, P: core.EventualP})
		cfg.Engine = name
		fmt.Fprintf(&b, "%s crash: full %s partial %s\n", name,
			crashDigest(t, cfg, nil),
			crashDigest(t, cfg, []int{0}))
	}
	got := b.String()
	path := filepath.Join("testdata", "engine_choice_fingerprint.txt")
	if *cluster.UpdateFixtures {
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
			t.Errorf("engine choice moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}

// line runs cfg and appends its fingerprint under name.
func line(t *testing.T, b *strings.Builder, name string, cfg cluster.Config) {
	t.Helper()
	res, err := cluster.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	fmt.Fprintf(b, "%s: %s\n", name, cluster.Fingerprint(res))
}

// crashDigest crashes nodes of cfg's cell at 0.6 ms, recovers and renders what survived: the recovered key count, an FNV-1a digest of the
// recovered (key, stamp) pairs in key order, the audit's losses, the
// persisted images' divergence and the modeled recovery time.
func crashDigest(t *testing.T, cfg cluster.Config, nodes []int) string {
	t.Helper()
	rep, err := recovery.CrashAndRecover(cfg, 600_000, nodes)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 0, rep.Recovered.Keys())
	for k := range rep.Recovered.Versions {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%d=%d;", k, rep.Recovered.Versions[k])
	}
	return fmt.Sprintf("keys=%d digest=%016x lost=%d/%d divergent=%d recovery_ns=%d",
		rep.Recovered.Keys(), h.Sum64(), rep.LostAcked, rep.AckedWrites,
		rep.DivergentKeys, rep.Timing.TotalNs)
}
