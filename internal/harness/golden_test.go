package harness

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden fixtures")

// renderGolden produces the canonical 5x5 determinism fixture: the full
// Figure 6 matrix (text and CSV renderings) plus Table 1, all at Quick scale.
// Every cell is an isolated deterministic simulation (seeded RNG, simulated
// time only), so the rendering is bit-stable across machines and worker
// counts — the same property TestFigure6ParallelMatchesSequential relies on.
func renderGolden(t *testing.T, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	f, err := Figure6(o)
	if err != nil {
		t.Fatalf("Figure6: %v", err)
	}
	f.WriteText(&buf)
	if err := f.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	t1, err := Table1(o)
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	t1.WriteText(&buf)
	return buf.Bytes()
}

// TestGolden5x5ByteIdentical asserts that all 25 <consistency, persistency>
// cells render byte-identically to the committed fixture, two ways:
//
//   - default: the fixture was generated before the policy-layer refactor,
//     so this is its equivalence proof — running the one visibility path and
//     the one durability path on each binding's rules row must not move a
//     single event.
//     It was also generated before clients routed through a ring, so it
//     proves the one-shard router wiring every flat cell now runs moves
//     nothing either.
//   - IntraParallel=4: four logical-process workers per cell; the LP engine
//     must reproduce the sequential rendering end to end (CI runs this one
//     under -race).
//
// Regenerate with: go test ./internal/harness -run 'Golden5x5/default' -update
func TestGolden5x5ByteIdentical(t *testing.T) {
	path := filepath.Join("testdata", "golden_5x5.txt")
	for _, tc := range []struct {
		name string
		mut  func(*Options)
	}{
		{"default", func(o *Options) { o.Parallel = 4 }},
		{"IntraParallel=4", func(o *Options) { o.Parallel, o.IntraParallel = 2, 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if *updateGolden && tc.name != "default" {
				t.Skip("the fixture is owned by the default case")
			}
			o := DefaultOptions().Quick()
			tc.mut(&o)
			got := renderGolden(t, o)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("5x5 output diverged from the golden fixture (%d bytes vs %d).\n--- got ---\n%s\n--- want ---\n%s",
					len(got), len(want), got, want)
			}
		})
	}
}

// renderGoldenCrash renders the four crash-and-audit experiments at Quick
// scale, exactly as ddpbench -exp prints them.
func renderGoldenCrash(t *testing.T, o Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range []string{"durability", "table4", "recovery", "checker"} {
		if err := RunNamed(&buf, name, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return buf.Bytes()
}

// TestGoldenCrashByteIdentical pins the crash path's output: the durability
// audit, Table 4, the recovery-time table and the consistency checker render
// byte-identically to the committed fixture, two ways:
//
//   - default: the fixture was generated before the crash path was collapsed
//     into one CrashAndRecover, and before a crash stopped wiping the
//     crashed nodes' visible versions (Recover now reads only their NVM
//     images), so this is both refactors' equivalence proof;
//   - IntraParallel=4: every crash cell runs to its crash instant on the LP
//     engine (Cluster.RunTo advances whichever engine was built), and must
//     reproduce the sequential rendering.
//
// Regenerate with: go test ./internal/harness -run 'GoldenCrash/default' -update
func TestGoldenCrashByteIdentical(t *testing.T) {
	path := filepath.Join("testdata", "golden_crash.txt")
	for _, tc := range []struct {
		name string
		mut  func(*Options)
	}{
		{"default", func(o *Options) { o.Parallel = 2 }},
		{"IntraParallel=4", func(o *Options) { o.Parallel, o.IntraParallel = 2, 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if *updateGolden && tc.name != "default" {
				t.Skip("the fixture is owned by the default case")
			}
			o := DefaultOptions().Quick()
			tc.mut(&o)
			got := renderGoldenCrash(t, o)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("crash experiments diverged from the golden fixture (%d bytes vs %d).\n--- got ---\n%s\n--- want ---\n%s",
					len(got), len(want), got, want)
			}
		})
	}
}

// TestModelReferenceFixture pins WriteModelReference (ddpbench -exp models):
// the 25 bindings' operational semantics as core.Describe renders them from
// core.RulesOf.
//
// Regenerate with: go test ./internal/harness -run TestModelReferenceFixture -update
func TestModelReferenceFixture(t *testing.T) {
	path := filepath.Join("testdata", "models.txt")
	var buf bytes.Buffer
	WriteModelReference(&buf)
	got := buf.Bytes()
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing model reference fixture (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("model reference diverged from the fixture.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
