package protocol_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/protocol"
	"repro/internal/ycsb"
)

// TestReceivedMessageReadInItsBox: a received message waits for its worker
// in the box it arrived in, and its handler reads it there. It runs every
// binding on the flat 5x20 cell and one 16-shard cell while one receiver's
// workers are all held busy, so the messages it receives queue behind them,
// and every spent box in the shared pool is reused for another body and
// history every 250 ns meanwhile. Each message's handler must read exactly
// the body that arrived: a receiver that gave its box back before dispatch
// would read another message here.
func TestReceivedMessageReadInItsBox(t *testing.T) {
	const (
		end     = 150_000 // ns
		busyAt  = 40_000
		busyFor = 40_000
		every   = 250
		victim  = 1
	)
	type cell struct {
		name string
		cfg  cluster.Config
	}
	var cells []cell
	for _, md := range core.AllModels() {
		cells = append(cells, cell{"flat5x20 " + md.String(), cluster.Config{
			Model: md, Workload: ycsb.WorkloadA, Params: params.Default(), Seed: 1,
		}})
	}
	sh := params.Default()
	sh.Servers, sh.ClientsPerServer, sh.ZipfTheta = 48, 2, 0.999
	cells = append(cells, cell{"sharded16 <Causal, Synchronous>", cluster.Config{
		Model: core.Model{C: core.Causal, P: core.Synchronous}, Workload: ycsb.WorkloadA, Params: sh,
		Shards: 16, Seed: 1,
	}})

	for _, tc := range cells {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.WarmupNs, tc.cfg.MeasureNs = end/3, end-end/3
			c, err := cluster.New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			type parked struct {
				body  string
				epoch int
			}
			epoch, checked, waited, bad := 0, 0, 0, 0
			for i, r := range c.Replicas {
				held := map[int32]parked{}
				protocol.WatchReceives(r, func(tok int32, body string) {
					pk, ok := held[tok]
					if !ok {
						held[tok] = parked{body, epoch}
						return
					}
					delete(held, tok)
					checked++
					if pk.epoch != epoch && i == victim {
						waited++
					}
					if body != pk.body {
						if bad++; bad <= 3 {
							t.Errorf("node %d read %s, but %s arrived", i, body, pk.body)
						}
					}
				})
			}
			var scribble func()
			scribble = func() {
				protocol.ScribbleSpareBoxes(c.Replicas[0])
				epoch++
				c.Eng.Schedule(every, scribble)
			}
			c.Eng.Schedule(0, scribble)
			c.Eng.Schedule(busyAt, func() {
				w := c.Workers[victim]
				for range w.Size() {
					w.AcquireEvent(busyFor, nil, 0)
				}
			})
			c.RunTo(end)
			if bad > 0 {
				t.Fatalf("%d of %d messages read another body than arrived", bad, checked)
			}
			if waited == 0 {
				t.Fatalf("no message waited at node %d across a box reuse (%d checked)", victim, checked)
			}
			t.Logf("%d messages read as they arrived, %d of them waited at node %d", checked, waited, victim)
		})
	}
}
