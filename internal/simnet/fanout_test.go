package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// runFanoutTraffic drives a randomized mix of broadcasts (full-fabric and
// group-scoped), unicast sends, and loopbacks — sparse stretches where
// chaining and elision engage plus bursts that contend queues and defeat the
// gap proofs — recording every delivery as (node, from, payload, time).
func runFanoutTraffic(t *testing.T, seed uint64, noFusion bool) (got []string, n *Network, e *sim.Engine) {
	t.Helper()
	e = sim.New()
	cfg := Config{Nodes: 4, OneWayLat: 500, Jitter: 120, Bandwidth: 1_000_000_000,
		QueuePairs: 3, Seed: seed, NoFanoutFusion: noFusion}
	n = New(e, cfg)
	for i := 0; i < 4; i++ {
		i := i
		n.Register(i, func(m Message) {
			got = append(got, fmt.Sprintf("n%d<-%d #%v @%d", i, m.From, m.Payload, e.Now()))
		})
	}
	r := sim.NewRNG(seed * 131)
	at := int64(0)
	for k := 0; k < 250; k++ {
		kk := k
		src := r.Intn(4)
		size := 64 + r.Intn(1500)
		switch r.Intn(6) {
		case 0, 1: // full-fabric broadcast
			e.At(at, func() {
				n.Broadcast(Message{From: src, Size: size, Kind: kk % 8, Payload: kk}, -1)
			})
		case 2: // group-scoped broadcast over a 3-node block, sometimes with except
			except := -1
			if r.Intn(2) == 0 {
				except = r.Intn(3)
			}
			e.At(at, func() {
				n.BroadcastRange(Message{From: src, Size: size, Kind: kk % 8, Payload: kk}, 0, 3, except)
			})
		case 3: // loopback
			e.At(at, func() {
				n.Send(Message{From: src, To: src, Size: size, Kind: kk % 8, Payload: kk})
			})
		default: // unicast, occasionally back-to-back with the next broadcast
			dst := r.Intn(4)
			e.At(at, func() {
				n.Send(Message{From: src, To: dst, Size: size, Kind: kk % 8, Payload: kk})
			})
		}
		if r.Intn(4) != 0 {
			at += int64(r.Intn(5000))
		}
	}
	e.RunAll()
	return got, n, e
}

// TestFusedBroadcastDeliveriesIdentical is the network-layer differential
// for fan-out fusion: fusion on and off must produce the identical delivery
// log (every handler invocation, order and timestamps included), engage the
// rx fast path identically, and satisfy the elision-accounting identity both
// across runs — eventsOn + fusedHops == eventsOff — and per node: every
// arrival is dispatched or fused exactly once. Send-time unicast chaining is
// gone, so its counter reads 0 on both sides.
func TestFusedBroadcastDeliveriesIdentical(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		off, nOff, eOff := runFanoutTraffic(t, seed, true)
		on, nOn, eOn := runFanoutTraffic(t, seed, false)
		if len(on) != len(off) {
			t.Fatalf("seed=%d: %d deliveries fused vs %d unfused", seed, len(on), len(off))
		}
		for i := range on {
			if on[i] != off[i] {
				t.Fatalf("seed=%d delivery %d diverged:\n  fused:   %s\n  unfused: %s",
					seed, i, on[i], off[i])
			}
		}
		if nOff.FusedHops() != 0 {
			t.Fatalf("seed=%d: disabled run counted fused=%d", seed, nOff.FusedHops())
		}
		if nOn.ChainedHops() != 0 || nOff.ChainedHops() != 0 {
			t.Fatalf("seed=%d: chained hops %d on / %d off, want 0 (mechanism removed)",
				seed, nOn.ChainedHops(), nOff.ChainedHops())
		}
		if nOn.FastDeliveries() != nOff.FastDeliveries() {
			t.Fatalf("seed=%d: fast-path hits diverged: %d fused vs %d unfused",
				seed, nOn.FastDeliveries(), nOff.FastDeliveries())
		}
		if gotEv, wantEv := eOn.Processed()+nOn.FusedHops(), eOff.Processed(); gotEv != wantEv {
			t.Fatalf("seed=%d: elision accounting broken: %d events + %d fused != %d",
				seed, eOn.Processed(), nOn.FusedHops(), wantEv)
		}
		for i := range nOn.rx {
			rx := &nOn.rx[i]
			if rx.schedArr+rx.fused != rx.delivered {
				t.Fatalf("seed=%d node %d: schedArr %d + fused %d != delivered %d",
					seed, i, rx.schedArr, rx.fused, rx.delivered)
			}
		}
		if seed == 0 && nOn.FusedHops() == 0 {
			t.Fatal("fusion never engaged")
		}
	}
}

// TestFusedBroadcastSingleDispatch pins the best case: one broadcast on an
// idle fabric costs exactly one dispatched event beyond the send itself —
// the earliest copy's arrival — with every later copy chained inline and
// every deliver hop elided by the rx fast path. QueuePairs=1 spaces the
// copies by queue-pair backpressure; with zero spread, copies arrive exactly
// one serialization apart and every gap proof correctly refuses the tie
// (the unfused engine interleaves those dispatches, so nothing may be
// elided).
func TestFusedBroadcastSingleDispatch(t *testing.T) {
	e := sim.New()
	cfg := netCfg(5)
	cfg.QueuePairs = 1
	n := New(e, cfg)
	delivered := 0
	for i := 0; i < 5; i++ {
		n.Register(i, func(Message) { delivered++ })
	}
	e.At(1000, func() {
		n.Broadcast(Message{From: 0, Size: 256, Kind: 1}, -1)
	})
	e.RunAll()
	if delivered != 4 {
		t.Fatalf("delivered %d copies, want 4", delivered)
	}
	// Event 1: the At closure issuing the broadcast. Event 2: copy 0's
	// arrival from the ingress. Copies 1-3 chain (fused), and all four
	// deliver hops ride the rx fast path.
	if e.Processed() != 2 {
		t.Fatalf("processed %d events, want 2", e.Processed())
	}
	if n.FusedHops() != 3 || n.FastDeliveries() != 4 {
		t.Fatalf("fused=%d fast=%d, want 3/4", n.FusedHops(), n.FastDeliveries())
	}
}

// TestBroadcastRangeAllocs pins the satellite guard: a group-scoped
// broadcast over a 5-node group with pooled payloads allocates nothing in
// steady state, fused or not.
func TestBroadcastRangeAllocs(t *testing.T) {
	for _, mode := range []struct {
		name     string
		noFusion bool
	}{{"fused", false}, {"unfused", true}} {
		t.Run(mode.name, func(t *testing.T) {
			e := sim.New()
			e.Reserve(64)
			cfg := netCfg(5)
			cfg.NoFanoutFusion = mode.noFusion
			n := New(e, cfg)
			payload := &struct{ v int }{7}
			for i := 0; i < 5; i++ {
				n.Register(i, func(Message) {})
			}
			// Warm the multicast/delivery pools and the kind table.
			n.BroadcastRange(Message{From: 1, Size: 192, Kind: 3, Payload: payload}, 0, 5, -1)
			e.RunAll()
			allocs := testing.AllocsPerRun(500, func() {
				n.BroadcastRange(Message{From: 1, Size: 192, Kind: 3, Payload: payload}, 0, 5, -1)
				e.RunAll()
			})
			if allocs > 0 {
				t.Fatalf("BroadcastRange allocated %.2f per call, want 0", allocs)
			}
		})
	}
}

// TestFusedBroadcastLPUnchanged proves the LP wiring ignores fusion: records
// degrade to per-destination mailbox sends, and no fusion counter moves.
func TestFusedBroadcastLPUnchanged(t *testing.T) {
	cfg := netCfg(3)
	engs := make([]*sim.Engine, 3)
	for i := range engs {
		engs[i] = sim.New()
	}
	n := NewParallel(engs, cfg)
	for i := 0; i < 3; i++ {
		n.Register(i, func(Message) {})
	}
	n.Broadcast(Message{From: 0, Size: 128}, -1)
	if n.FusedHops() != 0 || n.ChainedHops() != 0 {
		t.Fatalf("LP wiring fused: fused=%d chained=%d", n.FusedHops(), n.ChainedHops())
	}
	if moved := n.DeliverMail(); moved != 2 {
		t.Fatalf("mailboxes moved %d arrivals, want 2", moved)
	}
}
