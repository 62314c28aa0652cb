package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d, want 1/100", h.Min(), h.Max())
	}
	if got, want := h.Mean(), 50.5; math.Abs(got-want) > 1e-9 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
}

// leadingZerosLoop is the bit-at-a-time count bucketIndex used before it
// called math/bits, kept as the oracle for the bucket mapping.
func leadingZerosLoop(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// bucketIndexOracle is bucketIndex over the loop count.
func bucketIndexOracle(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	msb := 63 - leadingZerosLoop(uint64(v))
	return msb*subBuckets + int(v>>uint(msb-5))&(subBuckets-1)
}

// TestBucketIndexMatchesLoopOracle checks bucketIndex against the loop oracle
// at every power-of-two edge (and one either side), the sub-bucket edges of
// small ranges, and random values across the whole int64 range.
func TestBucketIndexMatchesLoopOracle(t *testing.T) {
	var vals []int64
	for b := 0; b < 63; b++ {
		p := int64(1) << b
		vals = append(vals, p-1, p, p+1)
	}
	for v := int64(0); v < 4096; v++ {
		vals = append(vals, v)
	}
	vals = append(vals, math.MaxInt64, math.MaxInt64-1)
	rng := uint64(7)
	for i := 0; i < 100_000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		vals = append(vals, int64(rng>>(rng%64)>>1))
	}
	for _, v := range vals {
		if got, want := bucketIndex(v), bucketIndexOracle(v); got != want {
			t.Fatalf("bucketIndex(%d) = %d, loop oracle says %d", v, got, want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Percentile(95) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Record(-5)
	if h.Min() != 0 || h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative sample not clamped: min=%d max=%d", h.Min(), h.Max())
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	// Values below subBuckets are stored exactly.
	var h Histogram
	h.Record(7)
	if got := h.Percentile(50); got != 7 {
		t.Fatalf("p50 of single small sample = %d, want 7", got)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	var h Histogram
	var raw []int64
	// A spread covering several powers of two.
	for i := 0; i < 10000; i++ {
		v := int64(i * 137 % 100000)
		raw = append(raw, v)
		h.Record(v)
	}
	sort.Slice(raw, func(i, j int) bool { return raw[i] < raw[j] })
	for _, p := range []float64{50, 90, 95, 99} {
		exact := raw[int(math.Ceil(float64(len(raw))*p/100))-1]
		got := h.Percentile(p)
		rel := math.Abs(float64(got-exact)) / float64(exact+1)
		if rel > 0.05 {
			t.Fatalf("p%.0f = %d, exact %d, rel err %.3f > 5%%", p, got, exact, rel)
		}
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	h.Record(100)
	h.Record(1000)
	if h.Percentile(0) != 100 {
		t.Fatalf("p0 = %d, want min", h.Percentile(0))
	}
	if h.Percentile(100) != 1000 {
		t.Fatalf("p100 = %d, want max", h.Percentile(100))
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	a.Record(10)
	a.Record(20)
	b.Record(30)
	a.Merge(&b)
	if a.Count() != 3 || a.Sum() != 60 || a.Max() != 30 || a.Min() != 10 {
		t.Fatalf("merge wrong: %s", a.String())
	}
	var empty Histogram
	a.Merge(&empty) // must be a no-op
	if a.Count() != 3 {
		t.Fatal("merging empty changed the histogram")
	}
	var c Histogram
	c.Merge(&a)
	if c.Count() != 3 || c.Min() != 10 {
		t.Fatal("merge into empty lost samples")
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
}

// Property: percentile is within the recorded [min, max] and monotone in p.
func TestHistogramPercentileProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			h.Record(int64(v))
		}
		last := int64(-1)
		for _, p := range []float64{1, 25, 50, 75, 90, 99, 100} {
			got := h.Percentile(p)
			if got < h.Min() || got > h.Max() || got < last {
				return false
			}
			last = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean is always within [min, max].
func TestHistogramMeanBoundsProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var h Histogram
		for _, v := range vals {
			h.Record(int64(v))
		}
		m := h.Mean()
		return m >= float64(h.Min()) && m <= float64(h.Max())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	c.Reset()
	if c.Value() != 0 {
		t.Fatal("reset failed")
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, 1e9); got != 1000 {
		t.Fatalf("throughput = %g, want 1000", got)
	}
	if got := Throughput(10, 0); got != 0 {
		t.Fatalf("zero window throughput = %g, want 0", got)
	}
	if got := Throughput(500, 5e8); got != 1000 {
		t.Fatalf("half-second window = %g, want 1000", got)
	}
}

func TestNormalize(t *testing.T) {
	out := Normalize([]float64{2, 4, 6}, 2)
	want := []float64{1, 2, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("normalize = %v, want %v", out, want)
		}
	}
	zero := Normalize([]float64{1, 2}, 0)
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatal("normalize by zero should yield zeros")
	}
}

func TestSummarize(t *testing.T) {
	var r, w Histogram
	r.Record(100)
	r.Record(200)
	w.Record(1000)
	s := Summarize(&r, &w, 1e9)
	if s.Ops != 3 {
		t.Fatalf("ops = %d, want 3", s.Ops)
	}
	if s.Throughput != 3 {
		t.Fatalf("throughput = %g, want 3", s.Throughput)
	}
	if s.MeanRead != 150 || s.MeanWrite != 1000 {
		t.Fatalf("means = %g/%g, want 150/1000", s.MeanRead, s.MeanWrite)
	}
	if math.Abs(s.MeanAll-433.333) > 0.01 {
		t.Fatalf("overall mean = %g, want ~433.3", s.MeanAll)
	}
}

func TestMedianOf(t *testing.T) {
	if m := MedianOf(nil); m != 0 {
		t.Fatalf("median of empty = %g", m)
	}
	if m := MedianOf([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %g, want 2", m)
	}
	if m := MedianOf([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %g, want 2.5", m)
	}
}

// TestSummarizeTailFields: the p50/p999 summary fields added for the
// capacity experiments follow the underlying histogram percentiles and order
// correctly against the p95/p99 band.
func TestSummarizeTailFields(t *testing.T) {
	var rd, wr Histogram
	for i := int64(1); i <= 10_000; i++ {
		rd.Record(i)
		wr.Record(2 * i)
	}
	s := Summarize(&rd, &wr, 1_000_000)
	if s.P50Read != rd.Percentile(50) || s.P999Read != rd.Percentile(99.9) {
		t.Fatalf("read tail fields diverge from histogram: %+v", s)
	}
	if s.P50Write != wr.Percentile(50) || s.P999Write != wr.Percentile(99.9) {
		t.Fatalf("write tail fields diverge from histogram: %+v", s)
	}
	if !(s.P50Read <= s.P95Read && s.P95Read <= s.P99Read && s.P99Read <= s.P999Read) {
		t.Fatalf("percentile order violated: p50=%d p95=%d p99=%d p999=%d",
			s.P50Read, s.P95Read, s.P99Read, s.P999Read)
	}
	// 99.9th of 1..10000 is ~9990; the log buckets land within a few percent.
	if s.P999Read < 9000 || s.P999Read > 11000 {
		t.Fatalf("p999 read %d far from ~9990", s.P999Read)
	}
}
