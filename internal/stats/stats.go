// Package stats provides the measurement primitives used by every
// experiment: log-bucketed latency histograms with percentile queries, the
// per-cell Summary built from a read and a write histogram, and the
// throughput and median helpers the result tables use.
//
// Latencies are simulated nanoseconds. A histogram splits each power-of-two
// range into 32 sub-buckets (an HDR-histogram-like layout), one row of
// counts per range, accurate to a few percent across nanoseconds-to-seconds
// ranges. It stores only rows 0 up to the 8-row block that holds its largest
// sample, so a histogram whose samples stay below 2^16 ns keeps 16 of the 64
// rows (4 KB) and an unused one keeps none; Record allocates only when a sample
// lands above the stored rows.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
)

const (
	subBuckets = 32 // resolution within each power-of-two range
	blockRows  = 8  // rows are stored in blocks of this many, from row 0 up
	blockLen   = blockRows * subBuckets
)

// Histogram records int64 latency samples.
// The zero value is ready to use and stores no rows.
//
// counts holds rows 0 up to the block of the largest sample recorded or
// merged, so two histograms holding the same samples have the same layout
// whatever order they were recorded and merged in. A used Histogram must not
// be copied by value: the copy would share its rows.
type Histogram struct {
	counts []uint64
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
	i := bucketIndex(v)
	if i >= len(h.counts) {
		h.grow(i)
	}
	h.counts[i]++
	h.n++
	h.sum += v
}

// grow stores the rows up to the block that holds bucket i.
func (h *Histogram) grow(i int) {
	counts := make([]uint64, (i/blockLen+1)*blockLen)
	copy(counts, h.counts)
	h.counts = counts
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
	if len(other.counts) > len(h.counts) {
		h.grow(len(other.counts) - 1)
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

// Throughput converts an operation count over a simulated window to
// operations per second. A non-positive window returns 0.
func Throughput(ops uint64, windowNs int64) float64 {
	if windowNs <= 0 {
		return 0
	}
	return float64(ops) / (float64(windowNs) / 1e9)
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
	var meanAll float64
	if total > 0 {
		meanAll = float64(read.Sum()+write.Sum()) / float64(total)
	}
	return Summary{
		Ops:        total,
		WindowNs:   windowNs,
		Throughput: Throughput(total, windowNs),
		MeanRead:   read.Mean(),
		MeanWrite:  write.Mean(),
		MeanAll:    meanAll,
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
