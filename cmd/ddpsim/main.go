// Command ddpsim runs one DDP model on one workload and prints its
// measurements.
//
// Usage:
//
//	ddpsim -model "causal,sync" -workload A -engine btree -servers 5 -clients 20
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/ddp"
	"repro/internal/engines"
	"repro/internal/ycsb"
)

func main() {
	model := flag.String("model", "linearizable,synchronous", "DDP model as <consistency>,<persistency>")
	workload := flag.String("workload", "A", "YCSB workload: A, B, C, W, E (scans), or F (read-modify-write)")
	engine := flag.String("engine", "", "kv engine cost profile: "+strings.Join(engines.Names(), ", ")+" (default hashtable)")
	servers := flag.Int("servers", 0, "number of servers (default: paper's 5)")
	clients := flag.Int("clients", 0, "clients per server (default: paper's 20)")
	keys := flag.Int("keys", 0, "distinct keys (default 2000)")
	netRT := flag.Int64("netrt", 0, "NIC-to-NIC round trip in ns (default 1000)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	measure := flag.Int64("measure", 5_000_000, "measurement window in simulated ns")
	flag.Parse()

	m, err := ddp.ParseModel(*model)
	if err != nil {
		fatal(err)
	}
	wl, err := ycsb.ByName(*workload)
	if err != nil {
		fatal(err)
	}

	p := ddp.DefaultParams()
	if *servers > 0 {
		p.Servers = *servers
	}
	if *clients > 0 {
		p.ClientsPerServer = *clients
	}
	if *keys > 0 {
		p.Keys = *keys
	}
	if *netRT > 0 {
		p.NetRoundTrip = *netRT
	}

	res, err := ddp.Run(ddp.Config{
		Model:     m,
		Workload:  wl,
		Engine:    *engine,
		Params:    p,
		Seed:      *seed,
		MeasureNs: *measure,
	})
	if err != nil {
		fatal(err)
	}

	fmt.Printf("model        : %s\n", res.Model)
	fmt.Printf("workload     : %s on %s\n", res.Workload, p.String())
	fmt.Printf("throughput   : %.2f Mops/s (simulated)\n", res.ThroughputOps/1e6)
	fmt.Printf("read latency : mean %.0f ns, p95 %d ns, p99 %d ns\n", res.MeanReadNs, res.P95ReadNs, res.P99ReadNs)
	fmt.Printf("write latency: mean %.0f ns, p95 %d ns, p99 %d ns\n", res.MeanWriteNs, res.P95WriteNs, res.P99WriteNs)
	fmt.Printf("read stalls  : %d (%.1f%% of reads conflicted with unpersisted writes)\n",
		res.ReadStalls, res.ReadConflictRate*100)
	if res.TxnConflictRate > 0 {
		fmt.Printf("txn conflicts: %.1f%%\n", res.TxnConflictRate*100)
	}
	if res.CausalBufferPeak > 0 {
		fmt.Printf("causal buffer: peak %d updates\n", res.CausalBufferPeak)
	}
	fmt.Printf("network      : %d messages, %.2f MB\n", res.NetworkMessages, float64(res.NetworkBytes)/1e6)
	fmt.Printf("NVM          : %d persists, mean queue %.0f ns\n", res.Persists, res.NVMQueueMeanNs)

	if t, rated := ddp.TraitsOf(res.Model); rated {
		fmt.Printf("paper rating : durability=%s performance=%s intuition=%s\n",
			t.Durability, t.Performance, t.Intuition)
	} else {
		fmt.Printf("durability   : %s (derived)\n", ddp.Durability(res.Model))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ddpsim:", err)
	os.Exit(1)
}
