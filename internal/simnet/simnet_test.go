package simnet

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

func netCfg(nodes int) Config {
	return Config{Nodes: nodes, OneWayLat: 500, Bandwidth: 200_000_000_000, QueuePairs: 400}
}

func TestPointToPointLatency(t *testing.T) {
	e := sim.New()
	n := New(e, netCfg(2))
	var arrived int64 = -1
	n.Register(1, func(m Message) { arrived = e.Now() })
	e.Schedule(0, func() { n.Send(Message{From: 0, To: 1, Size: 128}) })
	e.RunAll()
	// 128B at 200Gb/s = 5.12ns -> 5ns serialization each side, +500 one-way.
	if arrived < 500 || arrived > 520 {
		t.Fatalf("delivery at %d, want ~510", arrived)
	}
}

func TestSelfSendSkipsPropagation(t *testing.T) {
	e := sim.New()
	n := New(e, netCfg(2))
	var arrived int64 = -1
	n.Register(0, func(m Message) { arrived = e.Now() })
	e.Schedule(0, func() { n.Send(Message{From: 0, To: 0, Size: 128}) })
	e.RunAll()
	if arrived >= 500 || arrived < 0 {
		t.Fatalf("self delivery at %d, want < one-way latency", arrived)
	}
}

func TestBroadcastReachesAllButSenderAndExcept(t *testing.T) {
	e := sim.New()
	n := New(e, netCfg(5))
	got := map[int]bool{}
	for i := 0; i < 5; i++ {
		i := i
		n.Register(i, func(m Message) { got[i] = true })
	}
	e.Schedule(0, func() { n.BroadcastRange(Message{From: 2, Size: 64}, 0, n.Nodes(), 4) })
	e.RunAll()
	if got[2] || got[4] {
		t.Fatalf("broadcast delivered to sender or excluded node: %v", got)
	}
	for _, id := range []int{0, 1, 3} {
		if !got[id] {
			t.Fatalf("node %d missed broadcast: %v", id, got)
		}
	}
	if n.Messages() != 3 {
		t.Fatalf("messages = %d, want 3", n.Messages())
	}
}

func TestBandwidthSerializesLargeSends(t *testing.T) {
	e := sim.New()
	// 1 Gb/s so serialization is visible: 1250 bytes = 10000 ns.
	n := New(e, Config{Nodes: 2, OneWayLat: 0, Bandwidth: 1_000_000_000, QueuePairs: 400})
	var times []int64
	n.Register(1, func(m Message) { times = append(times, e.Now()) })
	e.Schedule(0, func() {
		n.Send(Message{From: 0, To: 1, Size: 1250})
		n.Send(Message{From: 0, To: 1, Size: 1250})
	})
	e.RunAll()
	if len(times) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(times))
	}
	if times[1]-times[0] < 10000 {
		t.Fatalf("second send not serialized behind first: %v", times)
	}
}

func TestPerMessageKindAccounting(t *testing.T) {
	e := sim.New()
	n := New(e, netCfg(2))
	n.Register(1, func(Message) {})
	e.Schedule(0, func() {
		n.Send(Message{From: 0, To: 1, Size: 10, Kind: 7})
		n.Send(Message{From: 0, To: 1, Size: 20, Kind: 7})
		n.Send(Message{From: 0, To: 1, Size: 30, Kind: 9})
	})
	e.RunAll()
	if n.MessagesOfKind(7) != 2 || n.MessagesOfKind(9) != 1 {
		t.Fatalf("kind counts wrong: 7=%d 9=%d", n.MessagesOfKind(7), n.MessagesOfKind(9))
	}
	if n.Bytes() != 60 {
		t.Fatalf("bytes = %d, want 60", n.Bytes())
	}
}

func TestUnregisteredHandlerCountsDropped(t *testing.T) {
	e := sim.New()
	n := New(e, netCfg(2))
	e.Schedule(0, func() { n.Send(Message{From: 0, To: 1, Size: 8}) })
	e.RunAll()
	if n.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", n.Dropped())
	}
}

func TestBadRoutePanics(t *testing.T) {
	e := sim.New()
	n := New(e, netCfg(2))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range destination")
		}
	}()
	n.Send(Message{From: 0, To: 5, Size: 8})
}

func TestQueuePairBackpressure(t *testing.T) {
	e := sim.New()
	low := New(e, Config{Nodes: 2, OneWayLat: 0, Bandwidth: 1_000_000_000, QueuePairs: 1})
	var last int64
	low.Register(1, func(Message) { last = e.Now() })
	e.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			low.Send(Message{From: 0, To: 1, Size: 1250})
		}
	})
	e.RunAll()

	e2 := sim.New()
	high := New(e2, Config{Nodes: 2, OneWayLat: 0, Bandwidth: 1_000_000_000, QueuePairs: 400})
	var last2 int64
	high.Register(1, func(Message) { last2 = e2.Now() })
	e2.Schedule(0, func() {
		for i := 0; i < 4; i++ {
			high.Send(Message{From: 0, To: 1, Size: 1250})
		}
	})
	e2.RunAll()
	if last <= last2 {
		t.Fatalf("QP=1 finished at %d, QP=400 at %d; constrained QPs should be slower", last, last2)
	}
}

func TestPayloadRoundTrips(t *testing.T) {
	e := sim.New()
	n := New(e, netCfg(2))
	type payload struct{ X int }
	var got *payload
	n.Register(1, func(m Message) { got = m.Payload.(*payload) })
	e.Schedule(0, func() {
		n.Send(Message{From: 0, To: 1, Size: 8, Payload: &payload{X: 42}})
	})
	e.RunAll()
	if got == nil || got.X != 42 {
		t.Fatalf("payload lost: %+v", got)
	}
}

// Property: messages between one (src,dst) pair are delivered in send order
// (per-pair FIFO), which the protocol relies on for INV-before-ENDX and
// INV-before-PERSIST orderings.
func TestPerPairFIFOProperty(t *testing.T) {
	e := sim.New()
	n := New(e, Config{Nodes: 3, OneWayLat: 500, Bandwidth: 1_000_000_000, QueuePairs: 4})
	var got []int
	n.Register(1, func(m Message) { got = append(got, m.Payload.(int)) })
	n.Register(2, func(Message) {})
	r := sim.NewRNG(5)
	seqs := 0
	e.Schedule(0, func() {
		for i := 0; i < 200; i++ {
			// Interleave sends to two destinations with varying sizes.
			size := 64 + r.Intn(4000)
			if r.Intn(3) == 0 {
				n.Send(Message{From: 0, To: 2, Size: size, Payload: -1})
				continue
			}
			n.Send(Message{From: 0, To: 1, Size: size, Payload: seqs})
			seqs++
		}
	})
	e.RunAll()
	if len(got) != seqs {
		t.Fatalf("delivered %d of %d", len(got), seqs)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at %d: %v", i, got[:i+1])
		}
	}
}

func TestConfigValidateRejectsEachBadField(t *testing.T) {
	good := netCfg(2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }, "Nodes"},
		{"negative nodes", func(c *Config) { c.Nodes = -3 }, "Nodes"},
		{"nodes beyond the arrival key's source field", func(c *Config) { c.Nodes = sim.MaxArrivalSources + 1 }, "Nodes"},
		{"zero bandwidth", func(c *Config) { c.Bandwidth = 0 }, "Bandwidth"},
		{"negative bandwidth", func(c *Config) { c.Bandwidth = -1 }, "Bandwidth"},
		{"negative latency", func(c *Config) { c.OneWayLat = -5 }, "OneWayLat"},
		{"negative jitter", func(c *Config) { c.Jitter = -1 }, "Jitter"},
		{"negative queue pairs", func(c *Config) { c.QueuePairs = -1 }, "QueuePairs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "simnet:") {
				t.Fatalf("error %q does not describe the bad field %q", err, tc.want)
			}
		})
	}
	// The bounds themselves are valid: one node, and as many as the key holds.
	for _, nodes := range []int{1, sim.MaxArrivalSources} {
		cfg := good
		cfg.Nodes = nodes
		if err := cfg.Validate(); err != nil {
			t.Fatalf("Nodes=%d rejected: %v", nodes, err)
		}
	}
}

func TestNewPanicsConsistentlyOnInvalidConfig(t *testing.T) {
	for _, cfg := range []Config{
		{Nodes: 0, Bandwidth: 1_000_000_000},
		{Nodes: 2, Bandwidth: 0},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("New accepted invalid config %+v", cfg)
				}
				// Both invalid fields panic with the descriptive Validate
				// error, not a bare string.
				if _, ok := r.(error); !ok {
					t.Fatalf("panic value %T is not the Validate error", r)
				}
			}()
			New(sim.New(), cfg)
		}()
	}
}

// TestSendDeliverAllocs locks in the tentpole's allocation reduction: after
// warmup, a unicast send+deliver cycle performs zero heap allocations —
// delivery records are pooled, per-pair FIFO state is a flat slice, and kind
// accounting is an indexed slice instead of a map.
func TestSendDeliverAllocs(t *testing.T) {
	e := sim.New()
	e.Reserve(64)
	n := New(e, netCfg(2))
	n.Register(1, func(Message) {})
	// Warm the delivery pool and the kind table.
	n.Send(Message{From: 0, To: 1, Size: 128, Kind: 5})
	e.RunAll()
	allocs := testing.AllocsPerRun(500, func() {
		n.Send(Message{From: 0, To: 1, Size: 128, Kind: 5})
		e.RunAll()
	})
	if allocs > 0 {
		t.Fatalf("send+deliver allocated %.2f per message, want 0", allocs)
	}
}

// TestBroadcastRangeAllocs pins BroadcastRange: a group-scoped broadcast over
// a 5-node group with pooled payloads allocates nothing in steady state, and
// it is exactly the per-destination Send loop in ascending node order — same
// deliveries, same times, same order.
func TestBroadcastRangeAllocs(t *testing.T) {
	t.Run("zero allocs", func(t *testing.T) {
		e := sim.New()
		e.Reserve(64)
		n := New(e, netCfg(5))
		payload := &struct{ v int }{7}
		for i := 0; i < 5; i++ {
			n.Register(i, func(Message) {})
		}
		// Warm the delivery pool and the kind table.
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
	t.Run("matches send loop", func(t *testing.T) {
		type hop struct {
			to int
			at int64
		}
		// Jitter reorders the copies' arrivals and one queue pair spaces
		// them, so the sequence is not simply ascending node order.
		run := func(broadcast func(n *Network, msg Message, base, size, except int)) []hop {
			e := sim.New()
			n := New(e, Config{Nodes: 6, OneWayLat: 500, Jitter: 200, Bandwidth: 1_000_000_000, QueuePairs: 1, Seed: 3})
			var got []hop
			for i := 0; i < 6; i++ {
				i := i
				n.Register(i, func(Message) { got = append(got, hop{i, e.Now()}) })
			}
			r := sim.NewRNG(11)
			for k := 0; k < 60; k++ {
				base := r.Intn(3)
				size := 2 + r.Intn(6-base-1)
				msg := Message{From: r.Intn(6), Size: 64 + r.Intn(1000), Kind: 1}
				except := r.Intn(7) - 1
				e.At(int64(k)*int64(r.Intn(3000)), func() { broadcast(n, msg, base, size, except) })
			}
			e.RunAll()
			return got
		}
		got := run(func(n *Network, msg Message, base, size, except int) {
			n.BroadcastRange(msg, base, size, except)
		})
		want := run(func(n *Network, msg Message, base, size, except int) {
			for to := base; to < base+size; to++ {
				if to != msg.From && to != except {
					m := msg
					m.To = to
					n.Send(m)
				}
			}
		})
		if len(want) < 100 {
			t.Fatalf("only %d deliveries; the case barely ran", len(want))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("BroadcastRange delivered %v, the Send loop %v", got, want)
		}
	})
}

// BenchmarkNetworkSend measures the full send+deliver hot path every
// protocol message rides on. Run with -benchmem: steady state is 0 allocs/op.
func BenchmarkNetworkSend(b *testing.B) {
	e := sim.New()
	e.Reserve(4096)
	n := New(e, netCfg(4))
	for i := 0; i < 4; i++ {
		n.Register(i, func(Message) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(Message{From: i % 4, To: (i + 1) % 4, Size: 192, Kind: i % 8})
		if e.Pending() >= 1024 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// BenchmarkNetworkBroadcast measures the coordinator's INV/VAL fan-out shape.
func BenchmarkNetworkBroadcast(b *testing.B) {
	e := sim.New()
	e.Reserve(8192)
	n := New(e, netCfg(5))
	for i := 0; i < 5; i++ {
		n.Register(i, func(Message) {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.BroadcastRange(Message{From: i % 5, Size: 192, Kind: 0}, 0, 5, -1)
		if e.Pending() >= 2048 {
			e.RunAll()
		}
	}
	e.RunAll()
}

// runFastPathTraffic drives a randomized unicast mix — sparse sends that
// leave receive queues idle plus bursts that contend them — and records every
// delivery as (node, from, payload, time). Returned alongside are the engine
// event count and the number of fast-path deliveries.
func runFastPathTraffic(t *testing.T, seed uint64, noFast bool) (got []string, events, fast uint64) {
	t.Helper()
	e := sim.New()
	cfg := Config{Nodes: 3, OneWayLat: 500, Jitter: 100, Bandwidth: 1_000_000_000,
		QueuePairs: 4, Seed: seed, NoFastPath: noFast}
	n := New(e, cfg)
	for i := 0; i < 3; i++ {
		i := i
		n.Register(i, func(m Message) {
			got = append(got, fmt.Sprintf("n%d<-%d #%v @%d", i, m.From, m.Payload, e.Now()))
		})
	}
	r := sim.NewRNG(seed * 77)
	at := int64(0)
	for k := 0; k < 300; k++ {
		// Mostly sparse (uncontended, fast-path eligible), occasionally a
		// burst of back-to-back sends that serialize behind each other.
		if r.Intn(5) == 0 {
			for b := 0; b < 4; b++ {
				kk, bb := k, b
				src, dst := r.Intn(3), r.Intn(3)
				size := 64 + r.Intn(2000)
				e.At(at, func() {
					n.Send(Message{From: src, To: dst, Size: size, Payload: kk*10 + bb})
				})
			}
		} else {
			kk := k
			src, dst := r.Intn(3), r.Intn(3)
			size := 64 + r.Intn(2000)
			e.At(at, func() {
				n.Send(Message{From: src, To: dst, Size: size, Payload: kk})
			})
		}
		at += int64(r.Intn(4000))
	}
	e.RunAll()
	return got, e.Processed(), n.FastDeliveries()
}

// TestNICFastPathDeliveriesIdentical is the network-layer half of the
// fast-path proof: over randomized traffic, every delivery lands at the same
// node, from the same sender, with the same payload, at the same nanosecond,
// whether or not the fast path is enabled — only the event count may differ,
// and it must shrink.
func TestNICFastPathDeliveriesIdentical(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		slow, slowEvents, slowFast := runFastPathTraffic(t, seed, true)
		fastRun, fastEvents, fastHits := runFastPathTraffic(t, seed, false)
		if slowFast != 0 {
			t.Fatalf("seed %d: disabled run counted %d fast deliveries", seed, slowFast)
		}
		if !reflect.DeepEqual(slow, fastRun) {
			for i := range slow {
				if i >= len(fastRun) || slow[i] != fastRun[i] {
					t.Fatalf("seed %d: delivery %d diverged:\n  slow: %s\n  fast: %s",
						seed, i, slow[i], fastRun[i])
				}
			}
			t.Fatalf("seed %d: delivery streams diverged in length: %d vs %d",
				seed, len(slow), len(fastRun))
		}
		if fastHits == 0 {
			t.Fatalf("seed %d: fast path never engaged on sparse traffic", seed)
		}
		if fastEvents+fastHits != slowEvents {
			t.Fatalf("seed %d: events %d + fast %d != baseline events %d",
				seed, fastEvents, fastHits, slowEvents)
		}
	}
}

// TestNICFastPathUncontendedSingleHop pins the mechanism: one message on an
// idle link is delivered by the arrival dispatch itself — no separate deliver
// event — at exactly arrival+serialization.
func TestNICFastPathUncontendedSingleHop(t *testing.T) {
	e := sim.New()
	n := New(e, Config{Nodes: 2, OneWayLat: 500, Bandwidth: 1_000_000_000,
		QueuePairs: 4})
	var at int64 = -1
	n.Register(1, func(Message) { at = e.Now() })
	e.Schedule(0, func() { n.Send(Message{From: 0, To: 1, Size: 1250}) })
	e.RunAll()
	// tx serialization 10us, one-way 500, rx serialization 10us.
	if at != 20500 {
		t.Fatalf("delivered at %d, want 20500", at)
	}
	if n.FastDeliveries() != 1 {
		t.Fatalf("fast deliveries = %d, want 1", n.FastDeliveries())
	}
}
