package stats

import (
	"math"
	"math/rand/v2"
	"reflect"
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

// refHist is the fixed 64-row layout Histogram used before it stored only the
// rows its samples reach, kept as the oracle for what the trimmed layout
// reports.
type refHist struct {
	counts          [64 * subBuckets]uint64
	n               uint64
	sum, minV, maxV int64
}

func (r *refHist) record(v int64) {
	if v < 0 {
		v = 0
	}
	if r.n == 0 || v < r.minV {
		r.minV = v
	}
	if v > r.maxV {
		r.maxV = v
	}
	r.counts[bucketIndex(v)]++
	r.n++
	r.sum += v
}

func (r *refHist) percentile(p float64) int64 {
	if r.n == 0 {
		return 0
	}
	if p <= 0 {
		return r.minV
	}
	if p >= 100 {
		return r.maxV
	}
	target := uint64(math.Ceil(float64(r.n) * p / 100))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i := range r.counts {
		seen += r.counts[i]
		if seen >= target {
			return min(max(bucketMid(i), r.minV), r.maxV)
		}
	}
	return r.maxV
}

// storedRows is how many rows of counts h keeps.
func storedRows(h *Histogram) int { return len(h.counts) / subBuckets }

// TestHistogramRowsFollowSamples pins the row-trimmed layout: the zero value
// and Reset store no rows; samples below 2^16 ns store at most 16 of the 64
// rows; one set of samples gives DeepEqual histograms whatever order it was
// recorded and merged in; percentiles, Min, Max and Mean equal the fixed-array
// reference's; and a Record inside the stored rows allocates nothing.
func TestHistogramRowsFollowSamples(t *testing.T) {
	var zero Histogram
	if storedRows(&zero) != 0 || !reflect.DeepEqual(zero, Histogram{}) {
		t.Fatalf("zero value stores %d rows", storedRows(&zero))
	}
	reset := &Histogram{}
	reset.Record(1 << 30)
	reset.Reset()
	if storedRows(reset) != 0 || !reflect.DeepEqual(*reset, Histogram{}) {
		t.Fatalf("Reset leaves %d rows stored", storedRows(reset))
	}

	rng := rand.New(rand.NewPCG(1, 2))
	small := &Histogram{}
	for i := 0; i < 10_000; i++ {
		small.Record(rng.Int64N(1 << 16))
	}
	if rows := storedRows(small); rows > 16 {
		t.Fatalf("samples below 2^16 ns store %d rows (%d B), want <= 16", rows, len(small.counts)*8)
	}

	// Samples span 0 to 2^40: a log-uniform exponent, then a uniform value
	// below it, so every row up to 40 gets some.
	samples := make([]int64, 5_000)
	for i := range samples {
		samples[i] = rng.Int64N(int64(1) << (1 + rng.IntN(40)))
	}
	var want refHist
	inOrder := &Histogram{}
	for _, v := range samples {
		want.record(v)
		inOrder.Record(v)
	}
	for _, p := range []float64{1, 5, 25, 50, 75, 95, 99, 99.9} {
		if got, w := inOrder.Percentile(p), want.percentile(p); got != w {
			t.Errorf("p%g = %d, fixed-array reference %d", p, got, w)
		}
	}
	if inOrder.Min() != want.minV || inOrder.Max() != want.maxV || inOrder.Mean() != float64(want.sum)/float64(want.n) {
		t.Errorf("min/max/mean = %d/%d/%g, reference %d/%d/%g", inOrder.Min(), inOrder.Max(), inOrder.Mean(),
			want.minV, want.maxV, float64(want.sum)/float64(want.n))
	}

	for trial := 0; trial < 20; trial++ {
		shuffled := append([]int64(nil), samples...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		recorded := &Histogram{}
		for _, v := range shuffled {
			recorded.Record(v)
		}
		if !reflect.DeepEqual(recorded, inOrder) {
			t.Fatalf("trial %d: a shuffled Record order stores %d rows, in order %d, or different counts",
				trial, storedRows(recorded), storedRows(inOrder))
		}
		// Split into parts merged in a random order, some into an empty
		// histogram first.
		parts := make([]Histogram, 1+rng.IntN(6))
		for _, v := range shuffled {
			parts[rng.IntN(len(parts))].Record(v)
		}
		merged := &Histogram{}
		for _, i := range rng.Perm(len(parts)) {
			merged.Merge(&parts[i])
		}
		if !reflect.DeepEqual(merged, inOrder) {
			t.Fatalf("trial %d: merging %d parts stores %d rows, in order %d, or different counts",
				trial, len(parts), storedRows(merged), storedRows(inOrder))
		}
	}

	allocs := testing.AllocsPerRun(100, func() {
		for v := int64(0); v < 1<<16; v += 97 {
			small.Record(v)
		}
	})
	if allocs != 0 {
		t.Fatalf("Record inside the stored rows allocates %.1f times per run, want 0", allocs)
	}
}
