package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"repro/internal/engines"
	"repro/internal/harness"
	"repro/internal/nvm"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// A kernel times one exported function of one layer in isolation. It builds
// its state once and returns a closure that performs n operations; the
// closure is timed kernelRounds times and the median round is reported, with
// the allocations per operation of that round beside it.

const kernelRounds = 5

type kernel struct {
	name  string
	ops   int // operations per round; a multiple of the kernel's burst size
	setup func() (run func(n int), err error)
}

// nopHandler is the event sink of every kernel.
type nopHandler struct{}

func (nopHandler) OnEvent(uint64) {}

// kernelSink keeps results alive so the compiler cannot drop the calls.
var kernelSink uint64

// kernels lists the isolated timings of exported functions, in run order.
func kernels() []kernel {
	h := nopHandler{}
	return []kernel{
		// ScheduleEvent + dispatch with ~1k events pending, all delays
		// inside the 16384 ns wheel window: the dense-queue fast path.
		{name: "sim.schedule_dispatch_ns", ops: 400_000, setup: func() (func(int), error) {
			e := sim.New()
			e.Reserve(2048)
			for i := 0; i < 1000; i++ {
				e.ScheduleEvent(1+int64(i), h, 0)
			}
			return func(n int) {
				for i := 0; i < n; i++ {
					e.ScheduleEvent(1000+int64(i%64), h, 0)
					e.Run(e.Now() + 1)
				}
			}, nil
		}},
		// 10k pending and every delay past the wheel window, so each event
		// lands in the overflow heap first and is re-bucketed on a turn.
		{name: "sim.overflow_dispatch_ns", ops: 200_000, setup: func() (func(int), error) {
			e := sim.New()
			e.Reserve(16384)
			for i := 0; i < 10_000; i++ {
				e.ScheduleEvent(20_000+int64(i*3), h, 0)
			}
			return func(n int) {
				for i := 0; i < n; i++ {
					e.ScheduleEvent(50_000+int64(i%8000), h, 0)
					e.Step()
				}
			}, nil
		}},
		// Bursts deep enough to queue behind 8 workers.
		{name: "sim.pool_acquire_ns", ops: 256 * 800, setup: func() (func(int), error) {
			e := sim.New()
			e.Reserve(1024)
			p := sim.NewPool(e, 8)
			return func(n int) {
				for b := 0; b < n/256; b++ {
					for j := 0; j < 256; j++ {
						p.AcquireEvent(int64(j%5+1), h, 0)
					}
					e.RunAll()
				}
			}, nil
		}},
		// One push and one pop per op over 160 lanes, the lane count of a
		// scale160 node's ingress under LP wiring.
		{name: "sim.ingress_merge_ns", ops: 160 * 2000, setup: func() (func(int), error) {
			q := sim.NewIngress(160)
			var at int64
			return func(n int) {
				for r := 0; r < n/160; r++ {
					for lane := 0; lane < 160; lane++ {
						q.Push(lane, sim.IngressEvent{At: at + int64(lane*7%160), Src: int32(lane), Seq: uint64(r), H: h})
					}
					for q.Len() > 0 {
						kernelSink += q.Pop().Arg
					}
					at += 160
				}
			}, nil
		}},
		// One lock-step epoch over 8 idle engines on 2 workers: the barrier
		// cost a sparse LP cell pays with nothing to dispatch.
		{name: "sim.lp_epoch_ns", ops: 20_000, setup: func() (func(int), error) {
			return func(n int) {
				engs := make([]*sim.Engine, 8)
				for i := range engs {
					engs[i] = sim.New()
				}
				g := sim.NewLPGroup(engs, 500, 2, nil)
				defer g.Close()
				g.Run(int64(n)*500 - 1)
			}, nil
		}},
		{name: "simnet.send_ns", ops: 64 * 3000, setup: func() (func(int), error) {
			e, net := kernelNet()
			return func(n int) {
				for b := 0; b < n/64; b++ {
					for i := 0; i < 64; i++ {
						net.Send(simnet.Message{From: i % 5, To: (i + 1 + i/5%4) % 5, Size: 192, Kind: 1, SentAt: e.Now()})
					}
					e.RunAll()
				}
			}, nil
		}},
		// BroadcastRange from one node to its 4 peers: the INV/VAL fan-out.
		{name: "simnet.broadcast5_ns", ops: 16 * 4000, setup: func() (func(int), error) {
			e, net := kernelNet()
			return func(n int) {
				for b := 0; b < n/16; b++ {
					for i := 0; i < 16; i++ {
						net.BroadcastRange(simnet.Message{From: i % 5, Size: 192, Kind: 1, SentAt: e.Now()}, 0, 5, -1)
					}
					e.RunAll()
				}
			}, nil
		}},
		{name: "nvm.access_ns", ops: 64 * 4000, setup: func() (func(int), error) {
			e := sim.New()
			e.Reserve(1024)
			d := nvm.New(e, nvm.NVMConfig(140, 400, 2, 8))
			var addr uint64
			return func(n int) {
				for b := 0; b < n/64; b++ {
					for i := 0; i < 64; i++ {
						addr++
						d.WriteEvent(addr%2000, h, 0)
					}
					e.RunAll()
				}
			}, nil
		}},
		{name: "ycsb.next_ns", ops: 1_000_000, setup: func() (func(int), error) {
			g := ycsb.NewGenerator(ycsb.WorkloadA, ycsb.NewZipfian(2000, 0.99), sim.NewRNG(1))
			return func(n int) {
				for i := 0; i < n; i++ {
					kernelSink += g.Next().Key
				}
			}, nil
		}},
		{name: "ycsb.arrival_ns", ops: 1_000_000, setup: func() (func(int), error) {
			a, err := ycsb.NewArrivals(ycsb.ArrivalSpec{Shape: ycsb.ShapeBursty, RatePerSec: 4e6}, sim.NewRNG(1))
			if err != nil {
				return nil, err
			}
			return func(n int) {
				for i := 0; i < n; i++ {
					kernelSink += uint64(a.Next())
				}
			}, nil
		}},
		// One Put and one Get per op over the default 2000-key store.
		{name: "engines.hashtable_op_ns", ops: 1_000_000, setup: func() (func(int), error) {
			ht := engines.NewHashTable()
			val := make([]byte, 128)
			for k := uint64(0); k < 2000; k++ {
				ht.Put(k, engines.Item{Value: val})
			}
			return func(n int) {
				for i := uint64(0); i < uint64(n); i++ {
					k := i * 2654435761 % 2000
					ht.Put(k, engines.Item{Value: val, Version: i})
					it, _ := ht.Get((k + 1) % 2000)
					kernelSink += it.Version
				}
			}, nil
		}},
		{name: "stats.record_ns", ops: 2_000_000, setup: func() (func(int), error) {
			var hist stats.Histogram
			return func(n int) {
				for i := int64(0); i < int64(n); i++ {
					hist.Record(600 + i*7919%100_000)
				}
				kernelSink += hist.Count()
			}, nil
		}},
		// Text + CSV rendering of a held 25-cell Figure 6 result.
		{name: "harness.render_ns", ops: 200, setup: func() (func(int), error) {
			o := harness.DefaultOptions().Quick()
			o.WarmupNs, o.MeasureNs, o.Parallel = 20_000, 50_000, 1
			fig, err := harness.Figure6(o)
			if err != nil {
				return nil, fmt.Errorf("figure 6 for the render kernel: %w", err)
			}
			return func(n int) {
				for i := 0; i < n; i++ {
					fig.WriteText(io.Discard)
					_ = fig.WriteCSV(io.Discard) // io.Discard cannot fail
				}
			}, nil
		}},
	}
}

// kernelNet is the 5-node fabric of the paper's default cluster.
func kernelNet() (*sim.Engine, *simnet.Network) {
	e := sim.New()
	e.Reserve(1024)
	net := simnet.New(e, simnet.Config{
		Nodes: 5, OneWayLat: 500, Jitter: 150, Bandwidth: 200_000_000_000, QueuePairs: 400, Seed: 1, MaxKind: 16,
	})
	for i := 0; i < 5; i++ {
		net.Register(i, func(simnet.Message) {})
	}
	return e, net
}

// runKernels times every kernel, prints its median ns/op with the
// allocations per op of that round, and returns the medians. Each round runs
// the kernel's op count divided by shrink (1 outside the smoke tests).
func runKernels(out io.Writer, shrink int) (map[string]float64, error) {
	res := map[string]float64{}
	for _, k := range kernels() {
		ops := k.ops / shrink
		run, err := k.setup()
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", k.name, err)
		}
		type round struct{ ns, allocs float64 }
		rounds := make([]round, kernelRounds)
		var ms runtime.MemStats
		for i := range rounds {
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			start := time.Now()
			run(ops)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms)
			rounds[i] = round{
				ns:     float64(elapsed.Nanoseconds()) / float64(ops),
				allocs: float64(ms.Mallocs-mallocs) / float64(ops),
			}
		}
		sort.Slice(rounds, func(i, j int) bool { return rounds[i].ns < rounds[j].ns })
		med := rounds[kernelRounds/2]
		res[k.name] = med.ns
		fmt.Fprintf(out, "kernel %-28s %10.2f ns/op %8.3f allocs/op (median of %d, min %.2f max %.2f)\n",
			k.name, med.ns, med.allocs, kernelRounds, rounds[0].ns, rounds[kernelRounds-1].ns)
	}
	return res, nil
}
