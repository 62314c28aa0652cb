// Package stats provides the measurement primitives used by every
// experiment: log-bucketed latency histograms with percentile queries,
// simple counters, and helpers for normalized result tables.
//
// Latencies are simulated nanoseconds. Histograms use sub-bucketed
// power-of-two ranges (an HDR-histogram-like layout) so they are compact,
// allocation-free on the hot path, and accurate to a few percent across
// nanoseconds-to-seconds ranges.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

const subBuckets = 32 // resolution within each power-of-two range

// Histogram records int64 latency samples.
// The zero value is ready to use.
type Histogram struct {
	counts [64 * subBuckets]uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// bucketIndex maps a non-negative value to its bucket.
func bucketIndex(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	// Highest set bit defines the power-of-two range; the next 5 bits pick
	// the sub-bucket.
	msb := 63 - bits.LeadingZeros64(uint64(v))
	shift := msb - 5
	sub := int(v>>uint(shift)) & (subBuckets - 1)
	return msb*subBuckets + sub // note: ranges below 2^5 collapse onto exact values
}

// bucketMid returns a representative value for bucket i (midpoint).
func bucketMid(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	msb := i / subBuckets
	sub := i % subBuckets
	base := int64(1) << uint(msb)
	step := base / subBuckets
	lo := base + int64(sub)*step
	return lo + step/2
}

// Record adds one sample. Negative samples are clamped to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.n++
	h.sum += v
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the average sample, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Min returns the smallest sample, or 0 with no samples.
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample.
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns an approximation of the p-th percentile (0 < p <= 100).
// With no samples it returns 0.
func (h *Histogram) Percentile(p float64) int64 {
	if h.n == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	target := uint64(math.Ceil(float64(h.n) * p / 100))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= target {
			m := bucketMid(i)
			if m > h.max {
				m = h.max
			}
			if m < h.min {
				m = h.min
			}
			return m
		}
	}
	return h.max
}

// Merge adds all samples of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	for i, c := range other.counts {
		h.counts[i] += c
	}
	h.n += other.n
	h.sum += other.sum
}

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{} }

// String renders a one-line summary.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.0fns p50=%dns p95=%dns p99=%dns max=%dns",
		h.n, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.max)
}

// Counter is a named monotonically increasing counter.
type Counter struct {
	v uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Reset zeroes the counter.
func (c *Counter) Reset() { c.v = 0 }

// Throughput converts an operation count over a simulated window to
// operations per second. A non-positive window returns 0.
func Throughput(ops uint64, windowNs int64) float64 {
	if windowNs <= 0 {
		return 0
	}
	return float64(ops) / (float64(windowNs) / 1e9)
}

// Normalize divides every value by base, returning 0s if base is 0.
// It is used to produce the paper's "normalized to <Linearizable,
// Synchronous>" plots.
func Normalize(values []float64, base float64) []float64 {
	out := make([]float64, len(values))
	if base == 0 {
		return out
	}
	for i, v := range values {
		out[i] = v / base
	}
	return out
}

// Summary bundles the metrics reported per experiment cell.
type Summary struct {
	Ops        uint64
	WindowNs   int64
	Throughput float64 // ops/sec (simulated)
	MeanRead   float64 // ns
	MeanWrite  float64 // ns
	MeanAll    float64 // ns
	P95Read    int64
	P95Write   int64
	P99Read    int64
	P99Write   int64
	// Extreme tail (99.9th percentile): the capacity experiments track it
	// because the knee of an offered-load curve shows up in p999 first.
	P999Read  int64
	P999Write int64

	// P50Read/P50Write (medians) anchor the capacity curves' lower band.
	P50Read  int64
	P50Write int64
}

// Summarize computes a Summary from read/write histograms and a window.
func Summarize(read, write *Histogram, windowNs int64) Summary {
	total := read.Count() + write.Count()
	var all Histogram
	all.Merge(read)
	all.Merge(write)
	return Summary{
		Ops:        total,
		WindowNs:   windowNs,
		Throughput: Throughput(total, windowNs),
		MeanRead:   read.Mean(),
		MeanWrite:  write.Mean(),
		MeanAll:    all.Mean(),
		P95Read:    read.Percentile(95),
		P95Write:   write.Percentile(95),
		P99Read:    read.Percentile(99),
		P99Write:   write.Percentile(99),
		P999Read:   read.Percentile(99.9),
		P999Write:  write.Percentile(99.9),
		P50Read:    read.Percentile(50),
		P50Write:   write.Percentile(50),
	}
}

// MedianOf returns the median of a float64 slice (0 for empty input).
func MedianOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
