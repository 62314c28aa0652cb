package simnet

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// refFabric is the send-side bookkeeping as it was before each NIC kept one
// in-flight list: per sender, one FIFO ring of release times per destination,
// released by scanning every ring; and a Nodes x Nodes table of last arrivals
// that enforced per-pair FIFO. It stays here as the oracle for
// TestRelTrackerMatchesFullScan.
type refFabric struct {
	n          *Network // for serialization and the jitter seed
	txFree     []int64
	seq        []uint64
	rings      [][][]int64 // [src][dst] pending release times, oldest first
	lastArrive []int64     // [src*Nodes+dst]
	clamps     int         // sends the pair-FIFO clamp delayed
}

func newRefFabric(n *Network) *refFabric {
	N := n.cfg.Nodes
	f := &refFabric{n: n, txFree: make([]int64, N), seq: make([]uint64, N),
		rings: make([][][]int64, N), lastArrive: make([]int64, N*N)}
	for s := range f.rings {
		f.rings[s] = make([][]int64, N)
	}
	return f
}

// send returns the arrival time of one send at now and the sender's in-flight
// count after it.
func (f *refFabric) send(src, dst, size int, now int64) (arrive int64, inflight int) {
	cfg := f.n.cfg
	N := cfg.Nodes
	f.seq[src]++
	ser := f.n.serialization(size)
	for d, r := range f.rings[src] {
		for len(r) > 0 && r[0] <= now {
			r = r[1:]
		}
		f.rings[src][d] = r
		inflight += len(r)
	}
	qpDelay := int64(0)
	if cfg.QueuePairs > 0 && inflight >= cfg.QueuePairs {
		qpDelay = ser * int64(inflight-cfg.QueuePairs+1)
	}
	txDone := max(f.txFree[src], now) + ser + qpDelay
	f.txFree[src] = txDone
	var lat int64
	if src != dst {
		lat = cfg.OneWayLat
		if cfg.Jitter > 0 {
			lat += jitterFor(cfg.Seed, uint64(src*N+dst), f.seq[src], cfg.Jitter)
		}
	}
	arrive = txDone + lat
	if la := f.lastArrive[src*N+dst]; arrive < la {
		arrive = la
		f.clamps++
	}
	f.lastArrive[src*N+dst] = arrive
	f.rings[src][dst] = append(f.rings[src][dst], arrive)
	return arrive, inflight + 1
}

// TestRelTrackerMatchesFullScan is a randomized differential of the NIC send
// path against refFabric: random sends — bursts and spreads, loopback
// included, sizes from header-only to several serialization slots — under
// hashed jitter (whose arrivals leave send order) and queue-pair
// pressure, on one engine whose clock advances by
// random steps between sends. After every send the arrival time prepSend
// returns and the sender's in-flight count must equal the oracle's. The
// jittered fabrics must also see the pair-FIFO clamp fire, so the
// clamp is exercised, not merely agreed on; likewise the 5-node fabrics' hot
// senders must outgrow their carves, and some NIC must give its overflow
// block back.
func TestRelTrackerMatchesFullScan(t *testing.T) {
	returned := false
	for _, nodes := range []int{1, 5, 40} {
		for _, fab := range []struct {
			name   string
			jitter int64
			qps    int
		}{
			{"uniform", 0, 0},
			{"jitter", 2000, 0},
			{"jitter+qp2", 1500, 2},
		} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("nodes=%d %s seed=%d", nodes, fab.name, seed)
				cfg := Config{Nodes: nodes, OneWayLat: 500, Jitter: fab.jitter,
					Bandwidth: 100e9, QueuePairs: fab.qps, Seed: seed}
				eng := sim.New()
				n := New(eng, cfg)
				ref := newRefFabric(n)
				rng := sim.NewRNG(seed)
				borrowed := false
				for step := 0; step < 3000; step++ {
					if rng.Intn(3) == 0 {
						eng.Run(eng.Now() + int64(rng.Intn(400)))
					}
					src := rng.Intn(nodes)
					if rng.Intn(2) == 0 {
						src = rng.Intn(1 + nodes/8) // a few hot senders
					}
					dst := rng.Intn(nodes)
					switch rng.Intn(6) {
					case 0:
						dst = src // loopback
					case 1, 2:
						dst = (src + 1 + rng.Intn(2)) % nodes // a hot pair
					}
					size := 64 + rng.Intn(4096)
					msg := Message{From: src, To: dst, Size: size}
					_, got := n.prepSend(&msg, eng)
					want, inflight := ref.send(src, dst, size, eng.Now())
					if got != want {
						t.Fatalf("%s step %d: %d->%d arrives at %d, oracle %d", name, step, src, dst, got, want)
					}
					if l := n.tx[src].rel.len(); l != inflight {
						t.Fatalf("%s step %d: node %d has %d sends in flight, oracle %d", name, step, src, l, inflight)
					}
					rel := &n.tx[src].rel
					borrowed = borrowed || rel.more != nil
					returned = returned || len(rel.spare.free) > 0
				}
				if nodes == 5 && !borrowed {
					t.Fatalf("%s: no NIC outgrew its carve", name)
				}
				if nodes > 1 && fab.jitter > 0 && ref.clamps == 0 {
					t.Fatalf("%s: the pair-FIFO clamp never fired", name)
				}
			}
		}
	}
	if !returned {
		t.Fatal("no NIC gave an overflow block back")
	}
}
