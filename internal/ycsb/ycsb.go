// Package ycsb reimplements the request-generation side of the Yahoo! Cloud
// Serving Benchmark: key choosers (zipfian, uniform, latest) and the
// standard workload mixes the paper evaluates (A, B, C, plus the paper's
// write-heavy workload W).
package ycsb

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// OpKind is the type of a generated request.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpWrite
	OpScan // short range scan (workload E)
	OpRMW  // read-modify-write (workload F)
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	default:
		return "op?"
	}
}

// Op is one generated request.
type Op struct {
	Kind    OpKind
	Key     uint64
	ScanLen int // for OpScan: number of consecutive keys to read
}

// Workload describes a request mix.
type Workload struct {
	Name      string
	ReadRatio float64 // fraction of reads in [0,1]
	// ScanRatio and RMWRatio carve scan / read-modify-write fractions out
	// of the non-read remainder (YCSB workloads E and F). MaxScanLen bounds
	// scan lengths (default 100).
	ScanRatio  float64
	RMWRatio   float64
	MaxScanLen int
}

// The paper's workloads: A (50/50), B (95/5 reads), C (read-only),
// and W (95% writes), defined in Section 8.2.
var (
	WorkloadA = Workload{Name: "workload-A", ReadRatio: 0.50}
	WorkloadB = Workload{Name: "workload-B", ReadRatio: 0.95}
	WorkloadC = Workload{Name: "workload-C", ReadRatio: 1.00}
	WorkloadW = Workload{Name: "workload-W", ReadRatio: 0.05}
	// WorkloadE and WorkloadF extend beyond the paper's evaluation with the
	// standard YCSB short-range-scan and read-modify-write mixes.
	WorkloadE = Workload{Name: "workload-E", ReadRatio: 0, ScanRatio: 0.95, MaxScanLen: 100}
	WorkloadF = Workload{Name: "workload-F", ReadRatio: 0.50, RMWRatio: 1.0}
)

// Validate reports the first workload error, if any: each ratio is a
// fraction, the scan and read-modify-write shares of the non-read remainder
// sum to at most 1, and MaxScanLen is not negative (0 takes the default).
func (w Workload) Validate() error {
	switch {
	case !(w.ReadRatio >= 0 && w.ReadRatio <= 1):
		return fmt.Errorf("ycsb: workload ReadRatio must be in [0,1], got %g", w.ReadRatio)
	case !(w.ScanRatio >= 0 && w.ScanRatio <= 1):
		return fmt.Errorf("ycsb: workload ScanRatio must be in [0,1], got %g", w.ScanRatio)
	case !(w.RMWRatio >= 0 && w.RMWRatio <= 1):
		return fmt.Errorf("ycsb: workload RMWRatio must be in [0,1], got %g", w.RMWRatio)
	case w.ScanRatio+w.RMWRatio > 1:
		return fmt.Errorf("ycsb: workload ScanRatio+RMWRatio must be <= 1, got %g", w.ScanRatio+w.RMWRatio)
	case w.MaxScanLen < 0:
		return fmt.Errorf("ycsb: workload MaxScanLen must be >= 0, got %d", w.MaxScanLen)
	}
	return nil
}

// ByName resolves a workload by its letter or full name.
func ByName(name string) (Workload, error) {
	switch name {
	case "A", "a", "workload-A":
		return WorkloadA, nil
	case "B", "b", "workload-B":
		return WorkloadB, nil
	case "C", "c", "workload-C":
		return WorkloadC, nil
	case "W", "w", "workload-W":
		return WorkloadW, nil
	case "E", "e", "workload-E":
		return WorkloadE, nil
	case "F", "f", "workload-F":
		return WorkloadF, nil
	default:
		return Workload{}, fmt.Errorf("ycsb: unknown workload %q", name)
	}
}

// KeyChooser selects keys according to some distribution.
type KeyChooser interface {
	Next(r *sim.RNG) uint64
	Keys() int
}

// Uniform picks keys uniformly from [0, n).
type Uniform struct{ N int }

// Next implements KeyChooser.
func (u Uniform) Next(r *sim.RNG) uint64 { return uint64(r.Intn(u.N)) }

// Keys implements KeyChooser.
func (u Uniform) Keys() int { return u.N }

// Zipfian implements the Gray et al. quick zipfian generator used by YCSB:
// item ranks follow P(i) ~ 1/i^theta over n items. Rank 0 is the hottest
// key; a fixed multiplicative hash scatters ranks over the key space so
// hot keys are not adjacent. A Zipfian is immutable after construction —
// draws take the caller's RNG — so one instance serves any number of
// generators, on any number of goroutines.
type Zipfian struct {
	n int

	alpha, zetan, eta, zeta2 float64
	rank1                    float64 // 1 + 0.5^theta: the u*zetan bound of rank 1
}

// NewZipfian builds a chooser over n keys with skew theta in [0,1).
// theta = 0 degenerates to uniform-ish; YCSB default is 0.99. Construction
// sums n series terms (one math.Pow each), so build one chooser per key
// space and share it.
func NewZipfian(n int, theta float64) *Zipfian {
	z := &Zipfian{n: n}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	z.rank1 = 1.0 + math.Pow(0.5, theta)
	return z
}

// zetaTerms, when non-nil, is told how many series terms each zeta call
// sums. Tests count construction cost through it; it is never set otherwise.
var zetaTerms func(n int)

func zeta(n int, theta float64) float64 {
	if zetaTerms != nil {
		zetaTerms(n)
	}
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// rank draws a zipfian rank in [0, n).
func (z *Zipfian) rank(r *sim.RNG) int {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	return int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Next implements KeyChooser. The returned key is the scattered image of a
// zipfian rank.
func (z *Zipfian) Next(r *sim.RNG) uint64 {
	k := z.rank(r)
	if k >= z.n {
		k = z.n - 1
	}
	// Scatter: multiplicative hash modulo n keeps the key space dense while
	// decorrelating rank from key id.
	return (uint64(k)*2654435761 + 104729) % uint64(z.n)
}

// Keys implements KeyChooser.
func (z *Zipfian) Keys() int { return z.n }

// HottestKey returns the key id that rank 0 maps to; tests and contention
// analyses use it.
func (z *Zipfian) HottestKey() uint64 { return 104729 % uint64(z.n) }

// Generator produces a deterministic stream of Ops for one client. It holds
// its random stream by value, so a load engine can embed one in its own
// record, and reads its workload through a pointer, so every generator of a
// cluster shares the cluster's one copy.
type Generator struct {
	w   *Workload
	kc  KeyChooser
	rng sim.RNG
}

// NewGenerator builds a per-client generator drawing from a copy of rng's
// state. Each client should get its own forked RNG so streams are
// independent but reproducible.
func NewGenerator(w Workload, kc KeyChooser, rng *sim.RNG) *Generator {
	g := MakeGenerator(&w, kc, *rng)
	return &g
}

// MakeGenerator is NewGenerator by value, for a generator embedded in a
// client record. The generator reads *w on every draw, so w must not change
// while it is in use.
func MakeGenerator(w *Workload, kc KeyChooser, rng sim.RNG) Generator {
	return Generator{w: w, kc: kc, rng: rng}
}

// Next returns the next operation.
func (g *Generator) Next() Op {
	if g.rng.Float64() < g.w.ReadRatio {
		return Op{Kind: OpRead, Key: g.kc.Next(&g.rng)}
	}
	// Non-read remainder: scan, read-modify-write, or plain write.
	r := g.rng.Float64()
	switch {
	case g.w.ScanRatio > 0 && r < g.w.ScanRatio:
		maxLen := g.w.MaxScanLen
		if maxLen < 1 {
			maxLen = 100
		}
		return Op{Kind: OpScan, Key: g.kc.Next(&g.rng), ScanLen: 1 + g.rng.Intn(maxLen)}
	case g.w.RMWRatio > 0 && r < g.w.ScanRatio+g.w.RMWRatio:
		return Op{Kind: OpRMW, Key: g.kc.Next(&g.rng)}
	default:
		return Op{Kind: OpWrite, Key: g.kc.Next(&g.rng)}
	}
}
