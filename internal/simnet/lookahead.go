package simnet

import "fmt"

// Lookahead derivation for the conservative-PDES cluster engine.
//
// An epoch of width L is safe when every cross-node send made during an
// epoch arrives strictly after it: arrive >= sentAt + L for all sends. In
// this fabric a cross-node arrival decomposes as
//
//	arrive = txDone + lat + jitter (+ FIFO clamp)
//
// where txDone >= sentAt + serialization >= sentAt + 1 (serialization is
// floored at 1 ns), lat = MinCrossLat (the fabric's one-way latency, the
// same for every pair), and jitter and the pair-FIFO clamp only ever add
// delay. So
//
//	arrive >= sentAt + 1 + MinCrossLat = sentAt + Lookahead()
//
// and Lookahead() = MinCrossLat + 1 is a provably safe epoch width: it
// never exceeds the true minimum cause-to-effect delay. Queue-pair
// backpressure and transmit-queue occupancy also only add. Jitter does not
// subtract because it is modeled as a non-negative additive term; a fabric
// whose jitter could make a link *faster* than OneWayLat would need
// MinCrossLat reduced by that bound instead.

// MinCrossLat returns the one-way propagation latency of a cross-node
// (src != dst) pair: OneWayLat, or 0 when no cross pair exists (Nodes < 2).
func (cfg Config) MinCrossLat() int64 {
	if cfg.Nodes < 2 {
		return 0
	}
	return cfg.OneWayLat
}

// Lookahead returns the safe epoch width for LP execution: the minimum
// cross-node one-way latency plus the 1 ns serialization floor. Always a
// lower bound on the true minimum cross-node delivery delay (see the
// derivation above).
func (cfg Config) Lookahead() int64 {
	return cfg.MinCrossLat() + 1
}

// ValidateLP reports the first configuration error for LP (parallel)
// wiring: everything Validate checks, plus at least two nodes and a
// positive minimum cross-node latency — a zero-latency link admits no
// lookahead, so such fabrics must run on the sequential engine.
func (cfg Config) ValidateLP() error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Nodes < 2 {
		return fmt.Errorf("simnet: LP wiring needs Nodes >= 2, got %d", cfg.Nodes)
	}
	if cfg.MinCrossLat() <= 0 {
		return fmt.Errorf("simnet: LP wiring needs a positive minimum cross-node latency (lookahead %d ns <= serialization floor); use the sequential engine", cfg.Lookahead())
	}
	return nil
}
