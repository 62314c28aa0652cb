package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at smoke size through the whole child path —
// cold rep, a timed rep, a traced rep, the LP run, the kernels — and checks
// what the benchmark promises about its own output.
func TestSmoke(t *testing.T) {
	cal := newCalibrator()
	for _, w := range workloads(smokeSize) {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := runChild(childOpts{
				w: w, size: smokeSize, seed: 7, minReps: 1, trace: true, kernelShrink: 50,
				outDir: dir, log: io.Discard,
				calibrate: func() (time.Duration, error) { return cal.run(), nil },
			}, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			// Every cell ran three times (cold, timed, traced), the LP cell
			// once more: a digest that moved between them is a failure.
			if c.Failed != 0 || c.Attempted < 3*len(w.cells) {
				t.Fatalf("%d of %d cell runs failed: %v", c.Failed, c.Attempted, c.Failures)
			}
			if len(c.Digests) != len(w.cells) {
				t.Errorf("%d digests for %d cells", len(c.Digests), len(w.cells))
			}

			checkEmitted(t, "end-to-end", endToEnd, endToEndValues([]childResult{c}, io.Discard))
			checkEmitted(t, "per-layer", perLayer(), c.Layer)
			for name, v := range endToEndValues([]childResult{c}, io.Discard) {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", name, v)
				}
			}

			var pct float64
			for _, p := range profilePackages {
				pct += c.Layer[p+".self_pct"]
			}
			pct += c.Layer["runtime.malloc_gc_pct"] + c.Layer["runtime.other_pct"]
			if math.Abs(pct-100) > 1 {
				t.Errorf("profile rows sum to %.2f, want 100 +- 1", pct)
			}

			checkSpans(t, filepath.Join(dir, "trace-"+w.name+".json"), len(w.cells))
		})
	}
}

// checkEmitted verifies that got holds exactly the metrics of defs, each
// with a legal name and a unit.
func checkEmitted(t *testing.T, kind string, defs []metricDef, got map[string]float64) {
	t.Helper()
	seen := map[string]bool{}
	for _, def := range defs {
		if seen[def.name] {
			t.Errorf("%s metric %s is defined twice", kind, def.name)
		}
		seen[def.name] = true
		if !nameRE.MatchString(def.name) {
			t.Errorf("%s metric name %q is not legal", kind, def.name)
		}
		if def.unit == "" || len(def.unit) > 16 {
			t.Errorf("%s metric %s has unit %q", kind, def.name, def.unit)
		}
		if def.better != "lower" && def.better != "higher" {
			t.Errorf("%s metric %s has direction %q", kind, def.name, def.better)
		}
		if def.clock != "host" && def.clock != "sim" {
			t.Errorf("%s metric %s is in neither host nor simulated time", kind, def.name)
		}
		if v, ok := got[def.name]; !ok {
			t.Errorf("%s metric %s was not emitted", kind, def.name)
		} else if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s metric %s = %v", kind, def.name, v)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s metric %s was emitted but is not defined", kind, name)
		}
	}
}

// checkSpans verifies the trace file: spans nest inside their parents, every
// cell has its own identifier, and a rep's layer spans sum to at most the rep.
func checkSpans(t *testing.T, path string, cells int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ Spans []span }
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	ids := map[string]bool{}
	var repNs, layerNs int64
	for _, s := range trace.Spans {
		byID[s.ID] = s
		if s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		switch {
		case s.Name == "rep":
			repNs += s.EndNs - s.StartNs
		case s.Name == "cell":
			if ids[s.Cell] {
				t.Errorf("cell identifier %q is used twice", s.Cell)
			}
			ids[s.Cell] = true
		default:
			layerNs += s.EndNs - s.StartNs
			if p := byID[s.Parent]; p.Name != "cell" || p.Cell != s.Cell {
				t.Errorf("layer span %s is not inside its cell span", s.Name)
			}
		}
		if s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
				t.Errorf("span %d (%s) is not inside its parent %d", s.ID, s.Name, s.Parent)
			}
		}
	}
	if len(ids) != cells {
		t.Errorf("%d cell spans for %d cells", len(ids), cells)
	}
	if layerNs > repNs {
		t.Errorf("layer spans sum to %d ns, more than the %d ns of the rep", layerNs, repNs)
	}
	if float64(layerNs) < 0.95*float64(repNs) {
		t.Errorf("layer spans cover %.1f%% of the rep, want >= 95%%", 100*float64(layerNs)/float64(repNs))
	}
}

// TestDescriptionMatchesBenchmarkJSON keeps BENCHMARK.json generated from
// the tables the benchmark reports from, inside the contract's limits.
func TestDescriptionMatchesBenchmarkJSON(t *testing.T) {
	var want bytes.Buffer
	if err := writeDescription(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh -describe > BENCHMARK.json`")
	}
	ws := workloads(fullSize)
	if len(ws) < 2 || len(ws) > 8 || len(endToEnd) > 16 || len(perLayer()) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics exceed the contract",
			len(ws), len(endToEnd), len(perLayer()))
	}
	for _, w := range ws {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q or its why is outside the contract", w.name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("bound %v of %s is outside (0, 0.25]", m.bound, m.name)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// TestDiffGoldenNamesCellAndGroup checks that a moved result is reported by
// cell and field group.
func TestDiffGoldenNamesCellAndGroup(t *testing.T) {
	groups := func(net string) map[string]string {
		return map[string]string{"summary": "a", "protocol": "b", "net": net, "routing": "d", "load": "e"}
	}
	pins := &golden{SimMops: 2, SimP99Ns: 10, Cells: map[string]map[string]string{"x": groups("c"), "y": groups("c")}}
	same := childResult{SimOps: 2, SimNs: 1000, SimP99Ns: 10, Digests: map[string]map[string]string{"x": groups("c"), "y": groups("c")}}
	if d := diffGolden(same, pins); len(d) != 0 {
		t.Errorf("identical results differ: %v", d)
	}
	moved := same
	moved.Digests = map[string]map[string]string{"x": groups("c"), "y": groups("MOVED")}
	d := diffGolden(moved, pins)
	if len(d) != 1 || !strings.Contains(d[0], "cell y") || !strings.Contains(d[0], "net") {
		t.Errorf("want one difference naming cell y and group net, got %v", d)
	}
}

// TestRelDiff checks that the selfcheck's relative difference stays finite
// (it is written out as JSON) when the first run reads 0.
func TestRelDiff(t *testing.T) {
	for _, c := range []struct{ a, b, want float64 }{{2, 2, 0}, {2, 2.5, 0.25}, {-2, -1, 0.5}, {0, 0, 0}, {0, 3, 1}, {3, 0, 1}} {
		if got := relDiff(c.a, c.b); got != c.want {
			t.Errorf("relDiff(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// protobuf encoding helpers for the synthetic profile.

func pbVarint(v uint64) []byte {
	var b []byte
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(field int, v uint64) []byte { return append(pbVarint(uint64(field)<<3), pbVarint(v)...) }

func pbBytes(field int, data []byte) []byte {
	b := append(pbVarint(uint64(field)<<3|2), pbVarint(uint64(len(data)))...)
	return append(b, data...)
}

// TestDecodeProfile feeds the decoder a synthetic profile with known sample
// counts per package and checks the rows it is turned into.
func TestDecodeProfile(t *testing.T) {
	strs := []string{"", "span", "sim.run_measure_s", "cluster.new_s"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var prof []byte
	funcs := map[string]uint64{}
	loc := func(names ...string) uint64 { // one location whose lines are names, innermost first
		var l []byte
		id := uint64(len(funcs) + 100)
		l = append(l, pbUint(1, id)...)
		for _, n := range names {
			fid, ok := funcs[n]
			if !ok {
				fid = uint64(len(funcs) + 1)
				funcs[n] = fid
				prof = append(prof, pbBytes(5, append(pbUint(1, fid), pbUint(2, str(n))...))...)
			}
			l = append(l, pbBytes(4, pbUint(1, fid))...)
		}
		prof = append(prof, pbBytes(4, l)...)
		return id
	}
	sample := func(count uint64, label string, packed bool, locs ...uint64) {
		var s []byte
		if packed {
			var ids []byte
			for _, id := range locs {
				ids = append(ids, pbVarint(id)...)
			}
			s = append(s, pbBytes(1, ids)...)
			s = append(s, pbBytes(2, append(pbVarint(count), pbVarint(count*10_000_000)...))...)
		} else {
			for _, id := range locs {
				s = append(s, pbUint(1, id)...)
			}
			s = append(s, pbUint(2, count)...)
			s = append(s, pbUint(2, count*10_000_000)...)
		}
		if label != "" {
			s = append(s, pbBytes(3, append(pbUint(1, str("span")), pbUint(2, str(label))...))...)
		}
		prof = append(prof, pbBytes(2, s)...)
	}

	engineRun := loc("repro/internal/sim.(*Engine).Run")
	// An inlined leaf: the first line is the innermost function.
	wheel := loc("repro/internal/sim.(*timingWheel).push", "repro/internal/sim.(*Engine).ScheduleEvent")
	send := loc("repro/internal/simnet.(*Network).Send")
	handler := loc("repro/internal/protocol.(*Replica).HandleNetMessage")
	memclr := loc("runtime.memclrNoHeapPointers")
	mallocgc := loc("runtime.mallocgc")
	futex := loc("runtime.futex")
	mark := loc("runtime.gcBgMarkWorker")
	scan := loc("runtime.scanobject")
	newCluster := loc("repro/internal/cluster.New")

	sample(3, "sim.run_measure_s", true, engineRun)
	sample(2, "sim.run_measure_s", false, wheel, engineRun)
	sample(3, "sim.run_measure_s", true, send, handler, engineRun)
	sample(1, "sim.run_measure_s", true, memclr, mallocgc, handler, engineRun) // allocator: malloc_gc
	sample(1, "", true, scan, mark)                                            // unlabelled collector goroutine: counted
	sample(4, "cluster.new_s", true, newCluster)                               // outside the Run spans: dropped
	sample(0, "sim.run_measure_s", true, futex)                                // zero-count sample: no weight
	for _, s := range strs {
		prof = append(prof, pbBytes(6, []byte(s))...)
	}

	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(zipped.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 7 {
		t.Fatalf("decoded %d samples, want 7", len(samples))
	}
	if got := samples[1].stack; len(got) != 3 || got[0] != "repro/internal/sim.(*timingWheel).push" {
		t.Errorf("inlined stack decoded as %v", got)
	}
	shares, n := profileShares(samples)
	if n != 10 {
		t.Errorf("%d samples counted, want 10", n)
	}
	for row, want := range map[string]float64{
		"sim.self_pct": 50, "simnet.self_pct": 30, "runtime.malloc_gc_pct": 20,
		"runtime.other_pct": 0, "cluster.self_pct": 0, "protocol.self_pct": 0,
	} {
		if math.Abs(shares[row]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", row, shares[row], want)
		}
	}

	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without an error")
	}
}
