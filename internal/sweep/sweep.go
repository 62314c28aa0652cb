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
// pool, so plain cluster runs and crash/recovery runs share it, and
// Arbitrate splits the core budget between cells and each cell's LP workers.
package sweep

import (
	"runtime"
	"sync"
)

// Arbitrate splits a core budget between cell-level and intra-cell (LP)
// parallelism so a sweep never oversubscribes the host:
// cellWorkers x lpWorkers <= procs.
//
// cellWorkers/lpWorkers follow the option convention: < 1 means "auto".
// Auto cell workers take min(procs, cells); auto LP workers take whatever
// budget remains per cell (procs / cellWorkers). When both are pinned and
// their product exceeds the budget, the explicit LP request wins — LP
// workers waiting at an epoch barrier waste more than idle cell slots — and
// cell workers shrink to fit. Results are always >= 1 each.
func Arbitrate(cells, cellWorkers, lpWorkers, procs int) (cw, lw int) {
	if procs < 1 {
		procs = 1
	}
	if cells < 1 {
		cells = 1
	}
	if cellWorkers < 1 {
		cellWorkers = procs
	}
	if cellWorkers > cells {
		cellWorkers = cells
	}
	if lpWorkers < 1 {
		lpWorkers = procs / cellWorkers
		if lpWorkers < 1 {
			lpWorkers = 1
		}
	}
	for cellWorkers > 1 && cellWorkers*lpWorkers > procs {
		cellWorkers--
	}
	return cellWorkers, lpWorkers
}

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
