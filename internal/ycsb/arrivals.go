package ycsb

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// ArrivalShape selects the time-varying rate profile of an open-loop arrival
// process.
type ArrivalShape int

const (
	// ShapePoisson is a homogeneous Poisson process at RatePerSec.
	ShapePoisson ArrivalShape = iota
	// ShapeBursty is a square wave: for the first BurstFrac of every period
	// the rate is RatePerSec*BurstFactor, otherwise it is scaled down so the
	// long-run mean stays RatePerSec.
	ShapeBursty
)

func (s ArrivalShape) String() string {
	switch s {
	case ShapePoisson:
		return "poisson"
	case ShapeBursty:
		return "bursty"
	default:
		return "shape?"
	}
}

// ArrivalSpec describes a deterministic open-loop arrival process.
type ArrivalSpec struct {
	Shape      ArrivalShape
	RatePerSec float64 // long-run mean arrival rate, ops/s
	PeriodNs   int64   // bursty period (default 1 ms)

	// BurstFactor is the in-burst rate multiplier (> 1); BurstFrac is the
	// fraction of each period spent bursting, in (0, 1).
	BurstFactor float64
	BurstFrac   float64

	// HotFrac redirects that fraction of in-burst arrivals onto the HotKeys
	// hottest keys (a hot-key storm). Zero disables redirection.
	HotFrac float64
	HotKeys int
}

func (s ArrivalSpec) withDefaults() ArrivalSpec {
	if s.PeriodNs == 0 {
		s.PeriodNs = 1_000_000
	}
	if s.Shape == ShapeBursty {
		if s.BurstFactor == 0 {
			s.BurstFactor = 4
		}
		if s.BurstFrac == 0 {
			s.BurstFrac = 0.1
		}
	}
	if s.HotFrac > 0 && s.HotKeys == 0 {
		s.HotKeys = 1
	}
	return s
}

// Validate reports the first specification error, if any.
func (s ArrivalSpec) Validate() error {
	s = s.withDefaults()
	switch {
	case s.RatePerSec <= 0:
		return fmt.Errorf("ycsb: arrival RatePerSec must be positive, got %g", s.RatePerSec)
	case s.PeriodNs < 0:
		return fmt.Errorf("ycsb: arrival PeriodNs must be >= 0, got %d", s.PeriodNs)
	case s.Shape == ShapeBursty && s.BurstFactor < 1:
		return fmt.Errorf("ycsb: arrival BurstFactor must be >= 1, got %g", s.BurstFactor)
	case s.Shape == ShapeBursty && (s.BurstFrac <= 0 || s.BurstFrac >= 1):
		return fmt.Errorf("ycsb: arrival BurstFrac must be in (0,1), got %g", s.BurstFrac)
	case s.Shape == ShapeBursty && s.BurstFactor*s.BurstFrac > 1:
		return fmt.Errorf("ycsb: arrival burst exceeds the mean budget: BurstFactor*BurstFrac = %g > 1",
			s.BurstFactor*s.BurstFrac)
	case s.HotFrac < 0 || s.HotFrac > 1:
		return fmt.Errorf("ycsb: arrival HotFrac must be in [0,1], got %g", s.HotFrac)
	case s.HotKeys < 0:
		return fmt.Errorf("ycsb: arrival HotKeys must be >= 0, got %d", s.HotKeys)
	}
	return nil
}

// Arrivals generates one deterministic arrival-time stream from a spec via
// Lewis-Shedler thinning: a homogeneous candidate stream at the rate
// envelope's maximum, each candidate accepted with probability
// lambda(t)/lambdaMax. The accepted stream is an exact nonhomogeneous Poisson
// process with intensity lambda. Next allocates nothing, so the open-loop
// issue path stays zero-alloc in steady state.
type Arrivals struct {
	spec      ArrivalSpec
	rng       *sim.RNG
	t         float64 // candidate clock, ns
	lambdaMax float64 // envelope, arrivals per ns
	burstLo   float64 // bursty: off-burst rate multiplier
}

// NewArrivals builds a stream. The spec must Validate; rng must be a
// dedicated fork (the stream consumes it).
func NewArrivals(spec ArrivalSpec, rng *sim.RNG) (*Arrivals, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	a := &Arrivals{spec: spec, rng: rng}
	mean := spec.RatePerSec / 1e9 // per ns
	switch spec.Shape {
	case ShapeBursty:
		a.lambdaMax = mean * spec.BurstFactor
		// Off-burst rate keeps the long-run mean at RatePerSec:
		// f*hi + (1-f)*lo = 1.
		a.burstLo = (1 - spec.BurstFactor*spec.BurstFrac) / (1 - spec.BurstFrac)
	default:
		a.lambdaMax = mean
	}
	return a, nil
}

// rate returns lambda(t) in arrivals per ns.
func (a *Arrivals) rate(t float64) float64 {
	mean := a.spec.RatePerSec / 1e9
	switch a.spec.Shape {
	case ShapeBursty:
		if a.inBurst(int64(t)) {
			return mean * a.spec.BurstFactor
		}
		return mean * a.burstLo
	default:
		return mean
	}
}

// inBurst reports whether t falls in the bursting part of its period.
func (a *Arrivals) inBurst(t int64) bool {
	if a.spec.Shape != ShapeBursty {
		return false
	}
	off := t % a.spec.PeriodNs
	return float64(off) < a.spec.BurstFrac*float64(a.spec.PeriodNs)
}

// InBurst reports whether simulated time t falls inside a burst window —
// the hot-key storm redirection window.
func (a *Arrivals) InBurst(t int64) bool { return a.inBurst(t) }

// Spec returns the validated, defaulted spec this stream runs.
func (a *Arrivals) Spec() ArrivalSpec { return a.spec }

// Next returns the next arrival time in ns, non-decreasing (at high rates
// several arrivals can truncate to the same nanosecond). The stream is
// infinite; the caller stops drawing when past its horizon.
func (a *Arrivals) Next() int64 {
	for {
		// Exponential candidate gap at the envelope rate. 1-Float64 avoids
		// log(0); the candidate clock stays fractional so slow streams do not
		// accumulate rounding drift.
		a.t += -math.Log(1-a.rng.Float64()) / a.lambdaMax
		if a.spec.Shape == ShapePoisson ||
			a.rng.Float64()*a.lambdaMax < a.rate(a.t) {
			at := int64(a.t)
			return at
		}
	}
}

// KeyOfRank returns the key id that popularity rank r scatters to (rank 0 is
// the hottest key). Storm generators draw from the top ranks directly.
func (z *Zipfian) KeyOfRank(r int) uint64 {
	if r < 0 || r >= z.n {
		panic(fmt.Sprintf("ycsb: rank %d out of [0,%d)", r, z.n))
	}
	return (uint64(r)*2654435761 + 104729) % uint64(z.n)
}
