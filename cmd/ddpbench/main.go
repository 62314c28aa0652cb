// Command ddpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	ddpbench -exp <name>|all [-quick] [-csv]
//
// `ddpbench -h` lists the experiment names, which of them -exp all runs and
// which -csv can render, read from harness's experiment table. Every
// topology and routing flag reaches every cell of the experiment; a cell
// that cannot honor one (e.g. -fwdbatch on an unsharded cell) fails with
// cluster.Config's per-field error.
//
// The capacity experiment (not part of -exp all) sweeps open-loop offered
// load against p50/p99/p999 latency for four corner DDP models, locates each
// model's capacity knee, and adds a bursty hot-key storm cell; -csv emits the
// curves as tidy rows.
//
// Performance investigation flags: -cpuprofile/-memprofile write pprof
// profiles covering the experiment run (-memprofile records every allocation,
// so `go tool pprof -sample_index=alloc_objects` counts are exact; see `make
// census`); -eventstats prints per-cell event-scheduler counters
// (events/sim-second, peak queue depth, timing-wheel occupancy) on stderr
// alongside the normal progress lines — including the hops the NIC fast path
// elided — plus logical-process synchronizer counters (epochs, cross-LP mail)
// when -lps engages the parallel intra-cell engine. -parallel N runs N cells
// at once and -lps N runs N LP workers inside each cell, both as given (0 and
// 1 select the sequential engine, as in cluster.Config; a negative count is
// an error); neither changes any reported number.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/engines"
	"repro/internal/harness"
)

func main() {
	var names, notInAll, csvNames []string
	for _, e := range harness.Experiments() {
		names = append(names, e.Name)
		if !e.InAll {
			notInAll = append(notInAll, e.Name)
		}
		if e.CSV {
			csvNames = append(csvNames, e.Name)
		}
	}
	exp := flag.String("exp", "all", "experiment to run: "+strings.Join(names, ", ")+
		", or all (every one but "+strings.Join(notInAll, ", ")+")")
	quick := flag.Bool("quick", false, "shrink the cluster and windows for a fast smoke run")
	seed := flag.Uint64("seed", 1, "simulation seed")
	shards := flag.Int("shards", 0, "partition the keyspace across this many replica groups behind a consistent-hash ring (0 = the paper's single flat group)")
	nodes := flag.Int("nodes", 0, "total simulated server nodes (0 = paper default; must equal shards*rf when both are set)")
	rf := flag.Int("rf", 0, "replicas per shard; with -shards, sets nodes = shards*rf (0 = keep the default group size)")
	placement := flag.String("placement", "hash", "sharded placement policy: hash (fixed per-key coordinator) or load (power-of-two-choices spreading of sketch-detected hot keys; load needs -shards)")
	replicareads := flag.Bool("replicareads", false, "route sharded reads to the least-loaded owning replica (needs -shards; weak-visibility models only — model sweeps apply it to their weak-visibility cells)")
	fwdbatch := flag.Int("fwdbatch", 0, "coalesce routed ops per destination into multi-op messages of up to this many ops (0 = unbatched, byte-identical to the classic router; N > 0 needs -shards)")
	engine := flag.String("engine", "", "kv engine cost profile: "+strings.Join(engines.Names(), ", ")+" (default hashtable)")
	csvOut := flag.Bool("csv", false, "emit tidy CSV instead of text ("+strings.Join(csvNames, ", ")+")")
	parallel := flag.Int("parallel", 0, "experiment cells to run concurrently (0 = all cores, 1 = sequential; never changes results)")
	lps := flag.Int("lps", 1, "logical-process workers inside each cell (0 or 1 = sequential engine, N >= 2 = N workers; never changes results)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write an exact allocation profile (every object sampled; after the run) to this file")
	eventstats := flag.Bool("eventstats", false, "print per-cell event-scheduler stats on stderr")
	flag.Parse()

	o := harness.DefaultOptions()
	o.Seed = *seed
	o.Engine = *engine
	o.Parallel = *parallel
	o.IntraParallel = *lps
	o.Placement = *placement
	o.ReplicaReads = *replicareads
	o.FwdBatch = *fwdbatch
	o.Progress = os.Stderr
	o.EventStats = *eventstats
	if *quick {
		o = o.Quick()
	}

	// Topology flags. -shards alone keeps the default group size per shard
	// (each shard is a paper-sized replica group); -rf overrides that size;
	// -nodes pins the total and must agree with shards*rf when both given.
	if *shards < 0 || *nodes < 0 || *rf < 0 {
		fmt.Fprintln(os.Stderr, "ddpbench: -shards/-nodes/-rf must be >= 0")
		os.Exit(1)
	}
	if *parallel < 0 || *lps < 0 {
		fmt.Fprintf(os.Stderr, "ddpbench: -parallel and -lps must be >= 0, got %d and %d\n", *parallel, *lps)
		os.Exit(1)
	}
	groupSize := o.Params.Servers
	if *rf > 0 {
		groupSize = *rf
	}
	switch {
	case *shards > 0:
		o.Shards = *shards
		o.Params.Servers = *shards * groupSize
		if *nodes > 0 && *nodes != o.Params.Servers {
			fmt.Fprintf(os.Stderr, "ddpbench: -nodes %d conflicts with -shards %d x -rf %d = %d\n",
				*nodes, *shards, groupSize, o.Params.Servers)
			os.Exit(1)
		}
	case *nodes > 0:
		o.Params.Servers = *nodes
		if *rf > 0 && *nodes%*rf != 0 {
			fmt.Fprintf(os.Stderr, "ddpbench: -rf %d must divide -nodes %d\n", *rf, *nodes)
			os.Exit(1)
		}
	case *rf > 0:
		o.Params.Servers = *rf
	}

	if *memprofile != "" {
		// The default rate samples one allocation per 512 KiB, about one in
		// ten thousand of the simulator's 32-64-byte records; a census needs
		// them all. Set before the run allocates anything worth counting.
		runtime.MemProfileRate = 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddpbench: -cpuprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ddpbench: -cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	run := harness.RunNamed
	if *csvOut {
		run = harness.RunNamedCSV
	}
	if err := run(os.Stdout, *exp, o); err != nil {
		fmt.Fprintln(os.Stderr, "ddpbench:", err)
		os.Exit(1)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ddpbench: -memprofile:", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // flush accounting so the profile reflects live + total allocs
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ddpbench: -memprofile:", err)
			os.Exit(1)
		}
	}
}
