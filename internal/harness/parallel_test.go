package harness

import (
	"bytes"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// TestFigure6ParallelMatchesSequential is the tentpole's correctness
// guarantee: every experiment cell is an isolated deterministic simulation,
// so running the grid across 8 workers must produce byte-identical output to
// running it sequentially — text and CSV renderings both.
func TestFigure6ParallelMatchesSequential(t *testing.T) {
	render := func(parallel int) (text, csv string) {
		o := DefaultOptions().Quick()
		o.Parallel = parallel
		f, err := Figure6(o)
		if err != nil {
			t.Fatalf("Figure6(parallel=%d): %v", parallel, err)
		}
		var tb, cb bytes.Buffer
		f.WriteText(&tb)
		if err := f.WriteCSV(&cb); err != nil {
			t.Fatalf("WriteCSV(parallel=%d): %v", parallel, err)
		}
		return tb.String(), cb.String()
	}

	seqText, seqCSV := render(1)
	parText, parCSV := render(8)
	if parText != seqText {
		t.Errorf("text output differs between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqText, parText)
	}
	if parCSV != seqCSV {
		t.Errorf("CSV output differs between workers=1 and workers=8:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqCSV, parCSV)
	}
}

// TestProgressLinesCompleteUnderParallelism checks that 25 cells on 12
// workers produce exactly one whole progress line each, and that no two
// cells write to Progress at once (runCells serializes the lines; under
// -race an unserialized write to the shared buffer is also a reported race).
func TestProgressLinesCompleteUnderParallelism(t *testing.T) {
	w := &exclusiveWriter{t: t}
	o := DefaultOptions().Quick()
	o.Parallel = 12
	o.Progress = w
	if _, err := Figure6(o); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimRight(w.buf.Bytes(), "\n"), []byte("\n"))
	if len(lines) != len(core.AllModels()) {
		t.Fatalf("progress lines = %d, want %d:\n%s", len(lines), len(core.AllModels()), w.buf.String())
	}
	for _, l := range lines {
		if !bytes.HasPrefix(l, []byte("  ran ")) || !bytes.Contains(l, []byte("Mops/s")) {
			t.Fatalf("malformed progress line %q", l)
		}
	}
}

// TestParallelIsNotCappedByCores runs four cells with Parallel 4 on one
// core: each cell waits until all four have started, which happens only if
// runCells runs Parallel cells at once whatever GOMAXPROCS is.
func TestParallelIsNotCappedByCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := DefaultOptions().Quick()
	o.Parallel = 4
	var started atomic.Int32
	all := make(chan struct{})
	_, err := runCells(o, onWorkloadA(o, core.AllModels()[:o.Parallel]),
		func(cluster.Config) (int, *cluster.Result, error) {
			if started.Add(1) == int32(o.Parallel) {
				close(all)
			}
			select {
			case <-all:
				return 0, nil, nil
			case <-time.After(10 * time.Second):
				return 0, nil, errors.New("fewer than Parallel cells ran at once")
			}
		})
	if err != nil {
		t.Fatal(err)
	}
}

// exclusiveWriter fails the test when two Writes overlap.
type exclusiveWriter struct {
	t    *testing.T
	busy atomic.Int32
	buf  bytes.Buffer
}

func (w *exclusiveWriter) Write(p []byte) (int, error) {
	if w.busy.Add(1) != 1 {
		w.t.Error("two cells wrote progress lines at once")
	}
	runtime.Gosched() // widen the window an unserialized writer would race in
	n, err := w.buf.Write(p)
	w.busy.Add(-1)
	return n, err
}
