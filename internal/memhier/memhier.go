// Package memhier models the volatile memory hierarchy of one server:
// private L1/L2, a shared LLC with a DDIO slice, and DRAM behind it.
//
// The model is deliberately coarse — the paper's protocols interact with the
// hierarchy only through access latencies (a replica update lands in the LLC
// via DDIO; a local read usually hits the LLC). We model a hit-ratio-driven
// expected latency rather than a full coherence simulation, which preserves
// the latency structure the DDP protocols see.
package memhier

import (
	"repro/internal/params"
	"repro/internal/sim"
)

// Hierarchy computes access costs for one node's volatile memory.
type Hierarchy struct {
	p   params.Params
	rng *sim.RNG

	// Hit probabilities for a demand access, tuned to a warmed key-value
	// working set: hot keys resident in LLC, cold ones in DRAM.
	l1Hit  float64
	l2Hit  float64
	llcHit float64
}

// New creates a hierarchy model with the given parameters and an RNG used to
// draw hit/miss outcomes deterministically.
func New(p params.Params, rng *sim.RNG) *Hierarchy {
	return &Hierarchy{
		p:      p,
		rng:    rng,
		l1Hit:  0.30,
		l2Hit:  0.30,
		llcHit: 0.90,
	}
}

// ReadLatency returns the simulated cost of one demand load of a key's value.
func (h *Hierarchy) ReadLatency() int64 {
	r := h.rng.Float64()
	switch {
	case r < h.l1Hit:
		return h.p.L1Latency
	case r < h.l1Hit+h.l2Hit*(1-h.l1Hit):
		return h.p.L2Latency
	case r < h.llcHit:
		return h.p.LLCLatency
	default:
		return h.p.DRAMLatency
	}
}

// WriteLatency returns the cost of updating the local copy of a key. Stores
// complete into the cache hierarchy; we charge the LLC round trip, matching
// the paper's "update local cache" step.
func (h *Hierarchy) WriteLatency() int64 {
	return h.p.LLCLatency
}

// DDIOFillLatency is the cost of a NIC writing an incoming replica update
// directly into the LLC's DDIO slice (Intel Data Direct I/O). It is an LLC
// write from the device's point of view.
func (h *Hierarchy) DDIOFillLatency() int64 {
	return h.p.LLCLatency
}
