package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
)

// tinyConfig builds a fast-but-real simulation cell.
func tinyConfig(seed uint64, m core.Model) cluster.Config {
	p := params.Default()
	p.Servers = 3
	p.ClientsPerServer = 2
	p.Keys = 64
	return cluster.Config{
		Model:     m,
		Params:    p,
		Seed:      seed,
		WarmupNs:  50_000,
		MeasureNs: 150_000,
	}
}

func TestRunMatchesSequentialInSubmissionOrder(t *testing.T) {
	models := []core.Model{
		core.Baseline,
		{C: core.Causal, P: core.Synchronous},
		{C: core.Eventual, P: core.EventualP},
		{C: core.ReadEnforcedC, P: core.Synchronous},
	}
	cells := make([]Cell, 0, 2*len(models))
	for i, m := range models {
		cells = append(cells, Cell{Config: tinyConfig(uint64(i+1), m)})
		cells = append(cells, Cell{Config: tinyConfig(uint64(i+100), m)})
	}

	seq := Run(cells, 1)
	par := Run(cells, 8)
	if len(seq) != len(cells) || len(par) != len(cells) {
		t.Fatalf("result lengths: seq=%d par=%d, want %d", len(seq), len(par), len(cells))
	}
	for i := range cells {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("cell %d errored: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		a, b := seq[i].Res, par[i].Res
		if a.Throughput() != b.Throughput() || a.Events != b.Events ||
			a.Summary.MeanWrite != b.Summary.MeanWrite || a.NetMessages != b.NetMessages {
			t.Fatalf("cell %d differs between workers=1 and workers=8:\nseq: %v\npar: %v", i, a, b)
		}
		if a.Config.Seed != cells[i].Config.Seed {
			t.Fatalf("cell %d result out of submission order", i)
		}
	}
}

func TestRunPropagatesFirstErrorAndDrains(t *testing.T) {
	bad := tinyConfig(1, core.Baseline)
	bad.Engine = "no-such-engine"
	cells := []Cell{
		{Config: tinyConfig(1, core.Baseline)},
		{Config: bad},
		{Config: tinyConfig(2, core.Baseline)},
	}
	res := Run(cells, 2)
	if err := FirstError(res); err == nil {
		t.Fatal("bad engine cell produced no error")
	}
	if res[1].Err == nil || res[1].Res != nil {
		t.Fatalf("failed cell not recorded: %+v", res[1])
	}
	if res[0].Err != nil {
		t.Fatalf("good cell before the failure errored: %v", res[0].Err)
	}
}

func TestRunOnDoneSerializedAndComplete(t *testing.T) {
	const n = 12
	cells := make([]Cell, n)
	var mu sync.Mutex
	inCallback := 0
	done := make(map[uint64]bool)
	for i := range cells {
		cells[i] = Cell{Config: tinyConfig(uint64(i+1), core.Baseline)}
		cells[i].OnDone = func(r *cluster.Result) {
			// The scheduler serializes OnDone: never two at once.
			mu.Lock()
			inCallback++
			if inCallback != 1 {
				t.Errorf("OnDone reentered: %d concurrent callbacks", inCallback)
			}
			done[r.Config.Seed] = true
			inCallback--
			mu.Unlock()
		}
	}
	res := Run(cells, 6)
	if err := FirstError(res); err != nil {
		t.Fatal(err)
	}
	if len(done) != n {
		t.Fatalf("OnDone fired for %d of %d cells", len(done), n)
	}
}

func TestMapPreservesOrderAndBoundsWorkers(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	var running, peak atomic.Int32
	out, err := Map(items, 4, func(v int) (int, error) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
		running.Add(-1)
		return v * v, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
	if p := peak.Load(); p > 4 {
		t.Fatalf("worker bound violated: %d concurrent, want <= 4", p)
	}
}

// TestMapStopsSubmittingAfterError: once an item fails, no worker claims
// another one. The promise starts when the error is recorded, not when fn
// returns, so the other worker may legitimately claim items in between; every
// surviving item therefore holds its worker for a moment, which bounds how
// many fit into that window (a failing worker would have to stall for ~10 ms
// to let the slack through) without touching forEach's contract.
func TestMapStopsSubmittingAfterError(t *testing.T) {
	const (
		workers = 2
		failing = 3
		slack   = 8
	)
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	boom := errors.New("boom")
	var started atomic.Int32
	_, err := Map(items, workers, func(v int) (int, error) {
		started.Add(1)
		if v == failing {
			return 0, fmt.Errorf("item %d: %w", v, boom)
		}
		time.Sleep(time.Millisecond)
		return v, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	// Items up to the failing one, one in flight per other worker, and slack.
	if s, limit := int(started.Load()), failing+workers+slack; s > limit {
		t.Fatalf("scheduler kept submitting after the error: %d of %d items started, want <= %d", s, len(items), limit)
	}
}

func TestMapEmptyAndSingle(t *testing.T) {
	out, err := Map(nil, 8, func(int) (int, error) { return 1, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("empty map: out=%v err=%v", out, err)
	}
	out, err = Map([]int{7}, 8, func(v int) (int, error) { return v + 1, nil })
	if err != nil || len(out) != 1 || out[0] != 8 {
		t.Fatalf("single map: out=%v err=%v", out, err)
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(3) != 3 {
		t.Fatal("explicit worker count not honored")
	}
	if Workers(0) != runtime.GOMAXPROCS(0) || Workers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("non-positive worker counts should resolve to GOMAXPROCS")
	}
}
