// Package sweep schedules independent simulation cells across CPU cores.
//
// Every experiment cell in this repository is a self-contained deterministic
// discrete-event simulation: it builds its own sim.Engine, network, and RNGs
// seeded from Config.Seed, and shares no mutable state with any other cell.
// That makes the paper's evaluation grids (25 DDP models x workloads x
// sensitivity points) embarrassingly parallel: cells can run concurrently
// without perturbing each other's simulated outcomes, so results at
// workers=N are byte-identical to workers=1 — only wall-clock time changes.
//
// Map is the one scheduler: it fans any cell function over a bounded worker
// pool, so plain cluster runs and crash/recovery runs share it. Its worker
// count is how many cells run at once, whatever the core count; how many LP
// workers run inside each cell is that cell's cluster.Config.IntraParallel.
package sweep

import (
	"runtime"
	"sync"
)

// Workers resolves a worker-count option: values < 1 mean "one worker per
// available core" (runtime.GOMAXPROCS(0)).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map fans fn over items with up to workers goroutines, handing out items
// in submission order and preserving that order in the returned slice. On
// the first error no further items start and the in-flight ones drain
// cleanly. When several in-flight items fail, the error of the
// earliest-submitted one is returned, so the propagated error does not
// depend on goroutine completion order; slots of failed or unstarted items
// are zero values.
func Map[T, R any](items []T, workers int, fn func(T) (R, error)) ([]R, error) {
	n := len(items)
	out := make([]R, n)
	if n == 0 {
		return out, nil
	}
	workers = min(Workers(workers), n)
	if workers == 1 {
		for i, it := range items {
			r, err := fn(it)
			if err != nil {
				return out, err
			}
			out[i] = r
		}
		return out, nil
	}

	var (
		mu       sync.Mutex
		next     int
		errIdx   int
		firstErr error
		wg       sync.WaitGroup
	)
	worker := func() {
		defer wg.Done()
		for {
			mu.Lock()
			if firstErr != nil || next >= n {
				mu.Unlock()
				return
			}
			i := next
			next++
			mu.Unlock()

			r, err := fn(items[i])
			if err != nil {
				mu.Lock()
				if firstErr == nil || i < errIdx {
					firstErr, errIdx = err, i
				}
				mu.Unlock()
				continue
			}
			out[i] = r
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()
	return out, firstErr
}
