package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

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
// to let the slack through) without touching Map's contract.
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
