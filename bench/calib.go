package main

import (
	"container/heap"
	"time"
)

// The reference host is a 2-vCPU virtual machine whose neighbours slow
// memory-bound code by 20-50% for seconds to minutes at a time (pure
// register arithmetic barely moves). Raw host times therefore drift more
// between two runs of the same commit than most optimisations gain. The
// calibrator is a fixed amount of work that owes nothing to the repo's code
// and slows down with the host about as much as the simulator does; a
// child runs it before and after every rep, and end-to-end host times are
// reported as they would be on a host that finishes one calibration in
// exactly calibNominal. Measured while sizing: that took the spread of a
// run's median wall from 14-27% down to 3-7% (README, "Calibration").
//
// The work is 45% xorshift arithmetic and 55% a toy event loop — a boxed
// container/heap queue, a map of small heap objects, one allocation per
// event or so — the blend whose slowdown tracked all four workloads' best.

// calibNominal is the calibration time the reported seconds refer to: about
// what the reference host needs when its neighbours are quiet.
const calibNominal = 100 * time.Millisecond

const (
	calibALUSteps   = 21_000_000
	calibEventSteps = 195_000
	calibQueueDepth = 4096
	calibKeys       = 1 << 16
)

// calibScale turns raw seconds into reference-host seconds, given the
// calibrations run just before and just after them.
func calibScale(before, after time.Duration) float64 {
	return 2 * calibNominal.Seconds() / (before + after).Seconds()
}

type calibQueue []uint64

func (q calibQueue) Len() int           { return len(q) }
func (q calibQueue) Less(i, j int) bool { return q[i] < q[j] }
func (q calibQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calibQueue) Push(v any)        { *q = append(*q, v.(uint64)) }
func (q *calibQueue) Pop() any {
	old := *q
	v := old[len(old)-1]
	*q = old[:len(old)-1]
	return v
}

type calibrator struct {
	x     uint64 // xorshift64 state
	queue calibQueue
	table map[uint64]*[4]uint64
	sink  uint64
}

// newCalibrator builds the calibrator's state and runs it once, so that the
// first timed run is as warm as the rest.
func newCalibrator() *calibrator {
	c := &calibrator{x: 88172645463325252, table: make(map[uint64]*[4]uint64, calibKeys)}
	for k := uint64(0); k < calibKeys; k++ {
		c.table[k] = &[4]uint64{k}
	}
	c.run()
	return c
}

func (c *calibrator) next() uint64 {
	x := c.x
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.x = x
	return x
}

// run does the fixed work and returns how long it took.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	for i := 0; i < calibALUSteps; i++ {
		c.next()
	}
	for i := 0; i < calibEventSteps; i++ {
		x := c.next()
		heap.Push(&c.queue, x)
		if len(c.queue) > calibQueueDepth {
			c.sink += heap.Pop(&c.queue).(uint64)
		}
		k := x % calibKeys
		e := c.table[k]
		if i%8 == 0 {
			e = &[4]uint64{x}
			c.table[k] = e
		}
		e[1] += x
	}
	return time.Since(start)
}
