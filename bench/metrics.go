package main

import (
	"repro/internal/core"
)

// metricDef is one named number the benchmark prints. clock says which time
// the number lives in: "host" is what the simulator costs, "sim" is what the
// modelled cluster does; a simulator-speed change must leave every "sim"
// number identical.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression. Per-layer metrics
	// have none.
	bound float64
	clock string // "host" or "sim"
	// exact metrics repeat bit for bit at a fixed seed; -selfcheck demands
	// identity for them instead of a tolerance.
	exact bool
}

// endToEnd are the numbers a user of the simulator sees, the same names on
// every workload. Host times are calibrated (calib.go). The bounds are three
// times the spread seen over ten seeds on the noisy reference host (README,
// "Spreads observed"), capped at the contract's 0.25. The simulated-time rows
// repeat exactly at a fixed seed (the digests enforce that); their bounds
// only absorb the seed-to-seed spread.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25, clock: "host"},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25, clock: "host"},
	{name: "sim_ops_per_s", unit: "ops/s", better: "higher", bound: 0.25, clock: "host"},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, clock: "host"},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.15, clock: "host"},
	{name: "allocs_per_sim_op", unit: "count", better: "lower", bound: 0.10, clock: "host"},
	{name: "sim_mops", unit: "Mops/s", better: "higher", bound: 0.08, clock: "sim", exact: true},
	{name: "sim_p99_ns", unit: "ns", better: "lower", bound: 0.25, clock: "sim", exact: true},
}

// spanNames are the layer boundaries the traced run wraps, in call order.
var spanNames = []string{
	"cluster.new_s", "cluster.start_s", "sim.run_warmup_s", "sim.run_measure_s", "cluster.collect_s",
}

// profilePackages are the repo packages that get their own profile row;
// every other leaf lands in one of the two runtime rows.
var profilePackages = []string{
	"sim", "simnet", "nvm", "memhier", "protocol", "cluster", "ycsb", "engines", "stats", "vclock",
}

// perLayer lists every per-layer metric: kernels, exact counters read off
// cluster.Result, the per-binding host costs, and the traced run's spans,
// profile shares and LP numbers.
func perLayer() []metricDef {
	var out []metricDef
	for _, k := range kernels() {
		out = append(out, metricDef{name: k.name, unit: "ns/op", better: "lower", clock: "host"})
	}
	count := func(name, better string) metricDef {
		return metricDef{name: name, unit: "count", better: better, clock: "sim", exact: true}
	}
	simNs := func(name string) metricDef {
		return metricDef{name: name, unit: "ns", better: "lower", clock: "sim", exact: true}
	}
	ratio := func(name, better string) metricDef {
		return metricDef{name: name, unit: "ratio", better: better, clock: "sim", exact: true}
	}
	out = append(out,
		count("sim.events", "lower"),
		ratio("sim.events_per_op", "lower"),
		count("sim.ingress_dispatches", "lower"),
		count("sim.overflow_events", "lower"),
		count("sim.max_pending", "lower"),
		count("simnet.messages", "lower"),
		metricDef{name: "simnet.bytes", unit: "B", better: "lower", clock: "sim", exact: true},
		count("simnet.fast_hops", "higher"),
		count("simnet.fused_hops", "higher"),
		count("simnet.chained_hops", "higher"),
		count("nvm.completions", "lower"),
		count("nvm.fused_completions", "higher"),
		simNs("nvm.mean_wait_ns"),
		count("nvm.max_queue", "lower"),
		count("protocol.reads", "higher"),
		count("protocol.writes", "higher"),
		count("protocol.persists", "lower"),
		simNs("protocol.read_stall_ns"),
		simNs("protocol.write_stall_ns"),
		count("protocol.txn_squashed", "lower"),
		count("protocol.buffered_updates", "lower"),
		simNs("cluster.worker_wait_ns"),
		count("cluster.routed_ops", "lower"),
		ratio("cluster.routed_share", "lower"),
		ratio("cluster.node_imbalance", "lower"),
		ratio("cluster.group_imbalance", "lower"),
		count("cluster.offered", "higher"),
		count("cluster.completed", "higher"),
		count("cluster.inflight_peak", "lower"),
	)
	for _, m := range core.AllModels() {
		out = append(out, metricDef{
			name: "protocol." + bindingTag(m) + ".host_ns_per_op", unit: "ns/op", better: "lower", clock: "host",
		})
	}
	for _, n := range spanNames {
		out = append(out, metricDef{name: n, unit: "s", better: "lower", clock: "host"})
	}
	for _, p := range profilePackages {
		out = append(out, metricDef{name: p + ".self_pct", unit: "%", better: "lower", clock: "host"})
	}
	out = append(out,
		metricDef{name: "runtime.malloc_gc_pct", unit: "%", better: "lower", clock: "host"},
		metricDef{name: "runtime.other_pct", unit: "%", better: "lower", clock: "host"},
		metricDef{name: "trace.overhead_pct", unit: "%", better: "lower", clock: "host"},
		metricDef{name: "runtime.peak_rss_mb", unit: "MB", better: "lower", clock: "host"},
		count("sim.lp_epochs", "lower"),
		count("sim.lp_mail", "lower"),
		metricDef{name: "sim.lp2_wall_ratio", unit: "ratio", better: "lower", clock: "host"},
		metricDef{name: "harness.paper_err_pct", unit: "%", better: "lower", clock: "sim", exact: true},
	)
	return out
}
