// Package params centralizes every architectural and calibration constant
// used by the simulator. The defaults mirror Table 5 of the paper
// ("Distributed Data Persistency", MICRO 2021): a 5-server cluster of 20-core
// nodes with DRAM+NVM memory, 200 Gb/s NICs and a 1 us NIC-to-NIC round trip.
//
// All durations are simulated nanoseconds. Everything that influences an
// experiment's shape lives here so that sensitivity sweeps (Figures 7-9)
// only have to vary a Params value.
package params

import "fmt"

// Params holds the full set of modeled-architecture parameters.
// The zero value is not useful; start from Default().
type Params struct {
	// Cluster shape.
	Servers          int // number of server nodes (paper: 5)
	ClientsPerServer int // closed-loop client threads per node (paper: 20)
	WorkersPerServer int // worker threads processing requests/messages (paper: 20 cores)
	// ClientWindow is how many requests each client thread keeps in flight
	// (Odyssey-style pipelined clients). 1 = strictly closed loop. Windows
	// above 1 apply only outside Transactional consistency and Scope
	// persistency, whose request streams are inherently sequential.
	ClientWindow int

	// Cache hierarchy round-trip latencies in ns (Table 5, 2 GHz cycles/2).
	L1Latency  int64 // 2 cycles  -> 1 ns
	L2Latency  int64 // 12 cycles -> 6 ns
	LLCLatency int64 // 38 cycles -> 19 ns

	// Main memory round trips in ns.
	DRAMLatency int64 // 100 ns read/write
	NVMReadLat  int64 // 140 ns
	NVMWriteLat int64 // 400 ns
	NVMChannels int   // 2
	NVMBanks    int   // 8 per channel

	// Network.
	NetRoundTrip  int64 // NIC-to-NIC round trip, ns (paper default 1000)
	NetJitter     int64 // max extra one-way propagation delay, ns (uniform)
	NetBandwidth  int64 // bits per second per NIC (200 Gb/s)
	QueuePairs    int   // max concurrently scheduled messages per NIC (400)
	MsgHeaderSize int   // bytes of header per protocol message

	// Request processing costs (the Pin-trace substitution): simulated CPU
	// time a worker spends on each activity, in ns.
	RequestCompute int64 // coordinator-side work to process a client read/write
	MessageHandle  int64 // handling one incoming protocol message at any node

	// Workload / store shape.
	Keys         int     // distinct keys (replicated on every server)
	ValueSize    int     // bytes per value
	ZipfTheta    float64 // YCSB zipfian skew (0 = uniform); paper-era default 0.99
	XactionSize  int     // client requests per transaction (paper: 5)
	ScopeSize    int     // client requests per persistency scope (paper: 10)
	EventualLag  int64   // delay before lazily propagating updates (Eventual consistency), ns
	LazyPersist  int64   // delay before lazily persisting (Eventual persistency), ns
	RetryBackoff int64   // backoff before a squashed transaction retries, ns

	// Groups splits the servers into hybrid-consistency groups (Section 9:
	// "Linearizable or Read-Enforced consistency in a local cluster, and
	// Eventual consistency across the entire distributed system"). 1 (the
	// default) is the paper's flat cluster; with more groups, the strong
	// protocol runs within the coordinator's group and updates propagate
	// lazily to the other groups. Only Linearizable and Read-Enforced
	// consistency support grouping, and not under Scope persistency: a
	// scope's barrier reaches only the writer's group, so the other groups'
	// updates filed under it would never persist.
	Groups int

	// Ablation switches (defaults reproduce the paper's design).
	//
	// SerialPropagation replaces the coordinator's INV broadcast with a
	// message that sequentially visits the replica nodes — the design the
	// paper explicitly rejects in Section 5 ("instead of sending a message
	// that sequentially visits all the other replica nodes").
	SerialPropagation bool
	// NoPersistCoalescing issues one NVM write per update instead of
	// coalescing per-key write-backs, quantifying what coalescing buys.
	NoPersistCoalescing bool
}

// Default returns the paper's Table 5 configuration.
func Default() Params {
	return Params{
		Servers:          5,
		ClientsPerServer: 20,
		WorkersPerServer: 20,
		ClientWindow:     1,

		L1Latency:  1,
		L2Latency:  6,
		LLCLatency: 19,

		DRAMLatency: 100,
		NVMReadLat:  140,
		NVMWriteLat: 400,
		NVMChannels: 2,
		NVMBanks:    8,

		NetRoundTrip:  1000,
		NetJitter:     150,
		NetBandwidth:  200_000_000_000,
		QueuePairs:    400,
		MsgHeaderSize: 64,

		RequestCompute: 600,
		MessageHandle:  100,

		Keys:         2000,
		ValueSize:    128,
		ZipfTheta:    0.99,
		XactionSize:  5,
		ScopeSize:    10,
		EventualLag:  2000,
		LazyPersist:  4000,
		RetryBackoff: 1500,
		Groups:       1,
	}
}

// Clients returns the total number of closed-loop clients in the cluster.
func (p Params) Clients() int { return p.Servers * p.ClientsPerServer }

// OneWayNet returns the one-way NIC-to-NIC propagation delay.
func (p Params) OneWayNet() int64 { return p.NetRoundTrip / 2 }

// Validate reports the first configuration error, if any.
func (p Params) Validate() error {
	switch {
	case p.Servers < 1:
		return fmt.Errorf("params: Servers must be >= 1, got %d", p.Servers)
	case p.ClientsPerServer < 1:
		return fmt.Errorf("params: ClientsPerServer must be >= 1, got %d", p.ClientsPerServer)
	case p.WorkersPerServer < 1:
		return fmt.Errorf("params: WorkersPerServer must be >= 1, got %d", p.WorkersPerServer)
	case p.ClientWindow < 0:
		return fmt.Errorf("params: ClientWindow must be >= 0, got %d", p.ClientWindow)
	case p.Groups < 0 || (p.Groups > 1 && p.Servers%p.Groups != 0):
		return fmt.Errorf("params: Groups must divide Servers evenly, got %d groups for %d servers", p.Groups, p.Servers)
	case p.Keys < 1:
		return fmt.Errorf("params: Keys must be >= 1, got %d", p.Keys)
	case p.NVMChannels < 1 || p.NVMBanks < 1:
		return fmt.Errorf("params: NVM geometry must be >= 1 channel and bank, got %dx%d", p.NVMChannels, p.NVMBanks)
	case p.NetRoundTrip < 0:
		return fmt.Errorf("params: NetRoundTrip must be >= 0, got %d", p.NetRoundTrip)
	case p.NetBandwidth <= 0:
		return fmt.Errorf("params: NetBandwidth must be > 0, got %d", p.NetBandwidth)
	case p.ZipfTheta < 0 || p.ZipfTheta >= 1:
		return fmt.Errorf("params: ZipfTheta must be in [0,1), got %g", p.ZipfTheta)
	case p.XactionSize < 1:
		return fmt.Errorf("params: XactionSize must be >= 1, got %d", p.XactionSize)
	case p.ScopeSize < 1:
		return fmt.Errorf("params: ScopeSize must be >= 1, got %d", p.ScopeSize)
	case p.ValueSize < 1:
		return fmt.Errorf("params: ValueSize must be >= 1, got %d", p.ValueSize)
	}
	// Simulated costs: zero is free, a negative one would run time backwards.
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"RequestCompute", p.RequestCompute},
		{"MessageHandle", p.MessageHandle},
		{"EventualLag", p.EventualLag},
		{"LazyPersist", p.LazyPersist},
		{"RetryBackoff", p.RetryBackoff},
		{"MsgHeaderSize", int64(p.MsgHeaderSize)},
		{"L1Latency", p.L1Latency},
		{"L2Latency", p.L2Latency},
		{"LLCLatency", p.LLCLatency},
		{"DRAMLatency", p.DRAMLatency},
	} {
		if c.v < 0 {
			return fmt.Errorf("params: %s must be >= 0, got %d", c.name, c.v)
		}
	}
	return nil
}

// String summarizes the cluster shape; useful in experiment banners.
func (p Params) String() string {
	return fmt.Sprintf("%d servers x %d clients, %d keys, netRT=%dns, nvmWr=%dns",
		p.Servers, p.ClientsPerServer, p.Keys, p.NetRoundTrip, p.NVMWriteLat)
}
