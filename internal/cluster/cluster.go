// Package cluster assembles the full simulated system: N server nodes (each
// a protocol replica with its key table, NVM device, memory
// hierarchy, worker pool, and NIC) plus closed-loop YCSB clients pinned to
// their local server, as in the paper's evaluation (Section 7).
//
// A Run executes warmup then a measurement window in simulated time and
// returns throughput, latency distributions, protocol metrics, and traffic
// accounting — everything the harness needs to regenerate the paper's
// tables and figures.
//
// The cell runs on one of two engines that produce byte-identical results
// (see DESIGN.md, "Per-node logical processes"): the sequential engine (one
// event loop for the whole cluster; Config.IntraParallel <= 1, the default)
// and the LP engine (one event loop per server node, advanced in lock-step
// epochs of the network lookahead on concurrent workers;
// Config.IntraParallel >= 2). Both schedule cross-node arrivals the same
// way, with sim.Engine.AtArrival under a sender-computed key: the sequential
// engine at send time, the LP engine at each epoch barrier, when the network
// empties its per-sender mailboxes (simnet.Network.DeliverMail).
package cluster

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engines"
	"repro/internal/memhier"
	"repro/internal/nvm"
	"repro/internal/params"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/ycsb"
)

// Config describes one simulation run.
type Config struct {
	Model    core.Model
	Workload ycsb.Workload
	Engine   string // engines.ProfileOf name; "" = hashtable
	Params   params.Params
	Seed     uint64

	// Shards partitions the keyspace across Servers/Shards-node replica
	// groups behind a consistent-hash ring (see topology.go): each shard
	// runs the full VP×DP protocol over its own group, and every client op
	// routes to the shard owning its key — executing locally when the
	// issuing node's shard owns it, else forwarded over the simulated
	// network to a coordinator inside the owning shard (route.go). 0 (the
	// default) is the paper's single flat replica group: it is wired exactly
	// as 1 (one all-servers shard, so no op is ever forwarded) and differs
	// only in reporting no routing accounting and in rejecting the routing
	// knobs below (TestFlatRoutingReport). Multi-shard clusters reject
	// Transactional consistency, Scope persistency, and hybrid Groups: their
	// client sessions span keys and would span shards.
	Shards int

	// Placement selects how the router picks the executing node inside a
	// key's owning replica group (Shards >= 1 only): "hash" (the default,
	// also "") uses a fixed second hash of the key, so every op on a key
	// lands on the same coordinator; "load" spreads keys a space-saving
	// sketch flags as hot over the group by deterministic
	// power-of-two-choices on the router's own sent-op counters
	// (loadtrack.go). All state is sender-local, so placement stays
	// byte-identical across engines and LP worker counts.
	Placement string

	// ReplicaReads routes read and scan ops to the least-loaded replica of
	// the owning group instead of the key's coordinator (Shards >= 1 only).
	// Legal only for weak visibility models (Causal/Eventual consistency),
	// where any replica may serve a read locally without the INV/ACK/VAL
	// round; strict-visibility models are rejected by Validate.
	ReplicaReads bool

	// FwdBatch > 0 coalesces routed requests and responses headed to the
	// same destination into one multi-op message of up to FwdBatch ops
	// (doorbell batching, fwdbatch.go), amortizing the message header and
	// the per-message handling charge. Changes modeled timing only, never
	// op outcomes. 0 (the default) sends every routed op as its own
	// message, byte-identical to the unbatched router.
	FwdBatch int

	// WarmupNs and MeasureNs bound the run in simulated time. Zero values
	// take the defaults (1 ms warmup, 5 ms measurement); negative ones fail.
	WarmupNs  int64
	MeasureNs int64

	// Arrivals switches the cell from closed-loop clients to the open-loop
	// load engine: requests arrive on a deterministic generated schedule
	// (RatePerSec is cluster-wide, split evenly across servers) and latency
	// is measured from each request's intended arrival instant, making the
	// distributions coordinated-omission-safe. ClientsPerServer and
	// ClientWindow are ignored. Open loop supports the plain request kinds
	// only: Transactional consistency and Scope persistency (whose
	// transactions and barriers are inherently closed-loop session state)
	// are rejected. Nil (the default) keeps the closed loop.
	Arrivals *ycsb.ArrivalSpec

	// IntraParallel is how many worker goroutines advance this cell's
	// per-node logical processes concurrently. 0 and 1 select the
	// sequential engine (the default, and the only choice on single-core
	// hosts); values >= 2 select the LP engine, clamped to the server
	// count; a negative value fails Validate. Never changes any reported
	// number — only wall-clock time. Ignored (sequential) when
	// TraceProtocol is set or Servers == 1.
	IntraParallel int

	// TrackHistory records every acknowledged write and completed read for
	// the recovery and intuition checkers. Costs memory; off by default.
	TrackHistory bool

	// TraceProtocol records every protocol event into Cluster.Trace. For
	// timeline demonstrations, not measurement runs.
	TraceProtocol bool

	// noNICFastPath disables the network's flow-level delivery fast path
	// (simnet.Config.NoFastPath). The fast path never changes a simulated
	// outcome, only the event count; tests set this to run the reference
	// path TestNICFastPathDifferential compares against.
	noNICFastPath bool
}

// WithDefaults returns c with the defaults New applies: a 1 ms warm-up and a
// 5 ms measurement window, YCSB-A, and the paper's Table 5 parameters. A
// caller that places an instant in the run window reads it from here.
func (c Config) WithDefaults() Config {
	if c.WarmupNs == 0 {
		c.WarmupNs = 1_000_000
	}
	if c.MeasureNs == 0 {
		c.MeasureNs = 5_000_000
	}
	if c.Workload.Name == "" {
		c.Workload = ycsb.WorkloadA
	}
	if c.Params.Servers == 0 {
		c.Params = params.Default()
	}
	return c
}

// WriteRecord is one acknowledged write, for durability audits.
type WriteRecord struct {
	Key     uint64
	Stamp   protocol.Stamp
	Client  int
	IssueAt int64
	AckAt   int64
	Scope   uint64
	// ScopePersisted is set once the write's scope barrier completed
	// (always true outside Scope persistency).
	ScopePersisted bool
}

// ReadRecord is one completed read, for intuition (monotonic/non-stale)
// and linearizability checks.
type ReadRecord struct {
	Key     uint64
	Stamp   protocol.Stamp // version returned (zero = no value)
	Client  int
	Node    int
	IssueAt int64
	DoneAt  int64
}

// Result carries everything measured during one run.
type Result struct {
	Config    Config
	Summary   stats.Summary
	ReadHist  stats.Histogram
	WriteHist stats.Histogram

	// Protocol metrics aggregated across replicas.
	Protocol protocol.Metrics

	// Device and network pressure.
	NVMMeanWaitNs  float64
	NVMMaxQueue    int
	NetMessages    uint64
	NetBytes       uint64
	NetFastHops    uint64 // arrivals delivered via the NIC one-hop fast path
	NetFusedHops   uint64 // always 0: fan-out fusion was removed; the benchmark reads the field
	NetChainedHops uint64 // always 0: send-time unicast chaining was removed; the benchmark reads the field
	DevFusedComps  uint64 // always 0: the NVM completion train was removed; the benchmark reads the field
	DevSchedComps  uint64 // NVM completions, one scheduled event each
	WorkerMeanWait float64

	// Causal reorder buffering high-water mark across replicas.
	BufferPeak int

	// Open-loop accounting (Config.Arrivals runs only): arrivals issued
	// during the measurement window (offered ops — compare against
	// Summary.Ops for achieved), completions observed in the window, and the
	// concurrent-session high-water mark across the whole run.
	Offered      uint64
	Completed    uint64
	InflightPeak int

	// Sharded routing accounting (Config.Shards >= 1 runs only): ops
	// forwarded to a remote shard during the measurement window, and ops
	// executed by each shard (issued locally or forwarded in) — the
	// hot-shard studies read their imbalance off ShardOps. NodeOps is the
	// same count per global node: placement policies move execution
	// *within* a group, which only node granularity can see (shard totals
	// are fixed by data ownership).
	Routed   uint64
	ShardOps []uint64
	NodeOps  []uint64

	SimTimeNs int64
	Events    uint64
	WallTime  time.Duration

	// Event-scheduler counters for the run (queue depth, wheel/overflow
	// split), summed across per-node engines under the LP engine —
	// surfaced by the harness under -eventstats.
	Sched sim.EngineStats

	// LP synchronizer counters; Workers is 0 under the sequential engine.
	LP sim.LPStats

	// Histories (only when Config.TrackHistory).
	Writes []WriteRecord
	Reads  []ReadRecord
}

// Throughput returns measured operations per simulated second.
func (r *Result) Throughput() float64 { return r.Summary.Throughput }

// measureSet is one logical process's latency sinks: the sequential engine
// has one set for the whole cluster, the LP engine one per node, so every set
// is written by a single LP and no histogram is duplicated per node. Each set
// merges into the Result once; bucket counters are integers, so how samples
// split across sets is invisible to results.
type measureSet struct {
	measuring bool

	read  stats.Histogram
	write stats.Histogram
}

func (m *measureSet) recordRead(lat int64) {
	if m.measuring {
		m.read.Record(lat)
	}
}

func (m *measureSet) recordWrite(lat int64) {
	if m.measuring {
		m.write.Record(lat)
	}
}

// nodeState is the per-server-node slice of cluster-side state: the node's
// engine, the measurement set of that engine, the node's load engine (its
// closed-loop clients, a slice of Cluster.Clients, or its open-loop source)
// and the node's own history logs. Logs stay per node and concatenate in node
// order, which preserves each client's record order (a client is pinned to
// one node).
type nodeState struct {
	eng *sim.Engine
	*measureSet

	clients []client
	src     *openSource

	writeLog []WriteRecord
	readLog  []ReadRecord

	track bool
}

// finishRead records a completed read — latency from start plus the history
// entry — in one step shared by the closed-loop client and the open-loop
// session table.
func (ns *nodeState) finishRead(start int64, key uint64, st protocol.Stamp, client, node int) {
	now := ns.eng.Now()
	ns.recordRead(now - start)
	ns.logRead(ReadRecord{Key: key, Stamp: st, Client: client, Node: node, IssueAt: start, DoneAt: now})
}

// finishWrite records a completed write the same way, returning the history
// index (or -1) so scoped writers can tag the record at their barrier.
func (ns *nodeState) finishWrite(start int64, key uint64, st protocol.Stamp, client int, scope uint64, persisted bool) int {
	now := ns.eng.Now()
	ns.recordWrite(now - start)
	return ns.logWrite(WriteRecord{
		Key: key, Stamp: st, Client: client, IssueAt: start, AckAt: now,
		Scope: scope, ScopePersisted: persisted,
	})
}

// logWrite appends to the node's write history when tracking, returning the
// record index (or -1).
func (ns *nodeState) logWrite(rec WriteRecord) int {
	if !ns.track {
		return -1
	}
	ns.writeLog = append(ns.writeLog, rec)
	return len(ns.writeLog) - 1
}

func (ns *nodeState) logRead(rec ReadRecord) {
	if !ns.track {
		return
	}
	ns.readLog = append(ns.readLog, rec)
}

// Cluster is a fully wired simulation, ready to run. Most callers use Run;
// crash audits and history checkers build a Cluster and call RunTo, so the
// recovery package can crash it where the run stopped.
type Cluster struct {
	Cfg Config
	// rules is Cfg.Model's row of protocol rules, resolved once: the
	// clients read it to learn whether they run transactions and scopes.
	rules core.Rules
	// Eng is the shared engine under the sequential engine (the default);
	// nil under the LP engine, whose per-node engines are private to the
	// synchronizer. Direct-drive callers (timelines, tests) use the
	// sequential engine.
	Eng      *sim.Engine
	Net      *simnet.Network
	Replicas []*protocol.Replica
	Devices  []*nvm.Device
	Workers  []*sim.Pool
	// Clients is every closed-loop client in one slab, in node order; each
	// node's clients are its slice of it (nodeState.clients).
	Clients []client
	// Sources are the per-node open-loop load engines (Config.Arrivals runs
	// only); Clients is empty then.
	Sources []*openSource

	nodes []*nodeState
	sets  []*measureSet // one per engine
	lps   *sim.LPGroup

	// The consistent-hash ring (one all-servers shard when Config.Shards is
	// 0) and one client router per node.
	ring    *ring
	routers []*router

	// Trace holds protocol events in dispatch order, so in nondecreasing
	// At, when Config.TraceProtocol is set.
	Trace []protocol.Event
}

// useLP reports whether cfg selects the LP engine. Tracing needs the
// sequential engine (a single global event order to narrate), and a
// one-server cluster has no cross-node lookahead to exploit.
func (cfg Config) useLP() bool {
	return cfg.IntraParallel > 1 && !cfg.TraceProtocol && cfg.Params.Servers > 1
}

// netConfig composes the simulated-network configuration for cfg: one
// uniform fabric for every shape, sharded or not.
func (cfg Config) netConfig() simnet.Config {
	p := cfg.Params
	return simnet.Config{
		Nodes:      p.Servers,
		OneWayLat:  p.OneWayNet(),
		Jitter:     p.NetJitter,
		Bandwidth:  p.NetBandwidth,
		QueuePairs: p.QueuePairs,
		Seed:       cfg.Seed,
		NoFastPath: cfg.noNICFastPath,
		// The cluster's message-kind space is the protocol kinds plus the
		// routing kinds above them; sizing the per-kind counters here
		// keeps the send hot path growth-free.
		MaxKind: kindRouteBatch,
	}
}

// nvmConfig composes each node's NVM device configuration for cfg.
func (cfg Config) nvmConfig() nvm.Config {
	p := cfg.Params
	return nvm.NVMConfig(p.NVMReadLat, p.NVMWriteLat, p.NVMChannels, p.NVMBanks)
}

// Validate reports the first configuration error: parameter ranges, the
// engine name, the workload mix, the run window, model/topology compatibility
// and the composed network and device configurations (simnet.Config.Validate
// / ValidateLP, nvm.Config.Validate). New runs it, so every knob fails
// through this one path with one message style; sweep builders can also
// check cells up front.
func (cfg Config) Validate() error {
	cfg = cfg.WithDefaults()
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if _, err := engines.ProfileOf(cfg.Engine); err != nil {
		return err
	}
	if err := cfg.Workload.Validate(); err != nil {
		return err
	}
	m := cfg.Model
	if !m.Valid() {
		return fmt.Errorf("cluster: Model %s is not one of the 25 DDP models", m)
	}
	// Transactions (ServesCommitted) and scope barriers (PersistAtScope) are
	// closed-loop session state confined to one replica group.
	r := core.RulesOf(m)
	txn, scoped := r.ServesCommitted, r.Persist == core.PersistAtScope
	if cfg.Params.Groups > 1 && (!r.InvAckVal || txn) {
		return fmt.Errorf("cluster: hybrid groups support Linearizable or Read-Enforced consistency, not %s", m.C)
	}
	if cfg.Arrivals != nil {
		if err := cfg.Arrivals.Validate(); err != nil {
			return err
		}
		if txn {
			return fmt.Errorf("cluster: open-loop arrivals do not support Transactional consistency (transactions are closed-loop session state)")
		}
		if scoped {
			return fmt.Errorf("cluster: open-loop arrivals do not support Scope persistency (scope barriers are closed-loop session state)")
		}
		if a := cfg.Arrivals; a.HotFrac > 0 && a.HotKeys > cfg.Params.Keys {
			return fmt.Errorf("cluster: Arrivals.HotKeys must be <= Params.Keys (%d) when HotFrac > 0, got %d", cfg.Params.Keys, a.HotKeys)
		}
	}
	p := cfg.Params
	switch {
	case cfg.WarmupNs < 0:
		return fmt.Errorf("cluster: WarmupNs must be >= 0, got %d", cfg.WarmupNs)
	case cfg.MeasureNs < 0:
		return fmt.Errorf("cluster: MeasureNs must be >= 0, got %d", cfg.MeasureNs)
	case cfg.IntraParallel < 0:
		return fmt.Errorf("cluster: IntraParallel must be >= 0, got %d", cfg.IntraParallel)
	case cfg.Shards < 0:
		return fmt.Errorf("cluster: Shards must be >= 0, got %d", cfg.Shards)
	case cfg.Shards > p.Servers:
		return fmt.Errorf("cluster: Shards must be <= Servers, got %d shards for %d servers", cfg.Shards, p.Servers)
	case cfg.Shards > 1 && p.Servers%cfg.Shards != 0:
		return fmt.Errorf("cluster: Shards must divide Servers evenly, got %d shards for %d servers", cfg.Shards, p.Servers)
	}
	if cfg.Shards > 1 {
		if txn {
			return fmt.Errorf("cluster: sharded clusters do not support Transactional consistency (transactions would span shards)")
		}
		if scoped {
			return fmt.Errorf("cluster: sharded clusters do not support Scope persistency (scope barriers would span shards)")
		}
		if p.Groups > 1 {
			return fmt.Errorf("cluster: hybrid consistency groups do not combine with Shards > 1 (each shard already scopes its group)")
		}
	}
	switch cfg.Placement {
	case "", "hash", "load":
	default:
		return fmt.Errorf("cluster: unknown Placement %q (want \"hash\" or \"load\")", cfg.Placement)
	}
	if cfg.Placement == "load" && cfg.Shards < 1 {
		return fmt.Errorf("cluster: Placement \"load\" requires a sharded topology (Shards >= 1)")
	}
	if cfg.ReplicaReads {
		if cfg.Shards < 1 {
			return fmt.Errorf("cluster: ReplicaReads requires a sharded topology (Shards >= 1)")
		}
		if r.InvAckVal {
			return fmt.Errorf("cluster: ReplicaReads requires a weak visibility model (Causal or Eventual consistency); %s reads must go through the key's coordinator", m.C)
		}
	}
	switch {
	case cfg.FwdBatch < 0:
		return fmt.Errorf("cluster: FwdBatch must be >= 0, got %d", cfg.FwdBatch)
	case cfg.FwdBatch > 0 && cfg.Shards < 1:
		return fmt.Errorf("cluster: FwdBatch requires a sharded topology (Shards >= 1)")
	}
	if err := cfg.netConfig().Validate(); err != nil {
		return err
	}
	if err := cfg.nvmConfig().Validate(); err != nil {
		return err
	}
	if cfg.useLP() {
		if err := cfg.netConfig().ValidateLP(); err != nil {
			return fmt.Errorf("cluster: IntraParallel=%d: %w", cfg.IntraParallel, err)
		}
	}
	return nil
}

// New builds a cluster per cfg. It validates the full configuration
// (Config.Validate) and wires the topology, protocol, and load layers.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	p := cfg.Params
	netCfg, nvmCfg := cfg.netConfig(), cfg.nvmConfig()
	useLP := cfg.useLP()
	store, _ := engines.ProfileOf(cfg.Engine) // Validate checked the name

	c := &Cluster{Cfg: cfg, rules: core.RulesOf(cfg.Model)}
	var net *simnet.Network
	// Event storage grows with the pending set the run reaches, not with a
	// guess made from the client count.
	if useLP {
		engs := make([]*sim.Engine, p.Servers)
		for i := range engs {
			engs[i] = sim.New()
			c.sets = append(c.sets, new(measureSet))
			c.nodes = append(c.nodes, &nodeState{eng: engs[i], measureSet: c.sets[i], track: cfg.TrackHistory})
		}
		net = simnet.NewParallel(engs, netCfg)
		c.lps = sim.NewLPGroup(engs, netCfg.Lookahead(), cfg.IntraParallel,
			func() { net.DeliverMail() })
	} else {
		eng := sim.New()
		c.Eng = eng
		c.sets = []*measureSet{new(measureSet)}
		for i := 0; i < p.Servers; i++ {
			c.nodes = append(c.nodes, &nodeState{eng: eng, measureSet: c.sets[0], track: cfg.TrackHistory})
		}
		net = simnet.New(eng, netCfg)
	}
	c.Net = net

	var tracer func(protocol.Event)
	if cfg.TraceProtocol {
		tracer = func(e protocol.Event) { c.Trace = append(c.Trace, e) }
	}
	// One RNG root forked in a fixed order regardless of engine choice, so
	// both engines build byte-identical initial states.
	rng := sim.NewRNG(cfg.Seed ^ 0xddf0ddf0)

	// Sequential wiring: one arena of replica records and payload boxes for
	// the one logical process, as simnet shares one delivery pool and the
	// engine one call slab. LP wiring leaves it nil: one arena per replica.
	var arena *protocol.Arena
	if !useLP {
		arena = new(protocol.Arena)
	}
	// Every cluster routes through a ring: Shards = 0 builds the same single
	// all-servers shard Shards = 1 does.
	shards := max(cfg.Shards, 1)
	rf := p.Servers / shards // replicas per shard group
	c.ring = newRing(shards, rf)
	var owned []protocol.KeyIndex
	owned, c.ring.owners = protocol.PartitionKeys(p.Keys, shards, c.ring.owner)
	for i := 0; i < p.Servers; i++ {
		eng := c.nodes[i].eng
		dev := nvm.New(eng, nvmCfg)
		workers := sim.NewPool(eng, p.WorkersPerServer)
		c.Devices = append(c.Devices, dev)
		c.Workers = append(c.Workers, workers)
		base := (i / rf) * rf
		var keys *protocol.KeyIndex
		if shards > 1 {
			keys = &owned[i/rf]
		}
		c.Replicas = append(c.Replicas, protocol.NewReplica(i, protocol.Deps{
			Eng:        eng,
			P:          p,
			Model:      cfg.Model,
			Net:        net,
			NVM:        dev,
			Mem:        memhier.New(p, rng.Fork()),
			Workers:    workers,
			Store:      store,
			Member:     protocol.Membership{Base: base, Size: rf, Rank: i - base},
			Keys:       keys,
			Trace:      tracer,
			AtomicRefs: useLP,
			Arena:      arena,
		}))
	}
	// Client routers share each node's NIC with protocol traffic: one
	// demultiplexer for the whole cluster replaces the handlers NewReplica
	// registered, picking the destination's router and splitting on the
	// routing kinds' dedicated range. A one-shard ring forwards nothing,
	// so no routing message ever arrives and its replicas keep their own
	// handler, sparing every delivery the extra call (EXPERIMENTS.md, "One
	// client-op path", measures what it costs a flat cell).
	//
	// Request records recycle per logical process, as the replicas' arena
	// does: a sequential cluster's routers share one list, an LP cluster has
	// one per router. A closed loop reserves each list one record per op its
	// process's clients can have in flight, in one allocation.
	needLT := cfg.Placement == "load" || cfg.ReplicaReads
	var reqs *sim.FreeList[request, *request]
	for i := 0; i < p.Servers; i++ {
		if reqs == nil || useLP {
			reqs = new(sim.FreeList[request, *request])
			if cfg.Arrivals == nil {
				reqs.Reserve(p.Servers / len(c.sets) * p.ClientsPerServer * max(p.ClientWindow, 1))
			}
		}
		rt := newRouter(c, c.ring, c.nodes[i], c.Replicas[i], net, c.Workers[i], reqs, i)
		if needLT {
			rt.lt = newLoadTracker(p.Servers)
			rt.loadPlace = cfg.Placement == "load"
			rt.rreads = cfg.ReplicaReads
		}
		if cfg.FwdBatch > 0 {
			rt.fb = newFwdBatcher(rt, cfg.FwdBatch)
		}
		c.routers = append(c.routers, rt)
	}
	if shards > 1 {
		demux := func(m simnet.Message) {
			rt := c.routers[m.To]
			if m.Kind >= kindRouteReq {
				rt.onMessage(m)
			} else {
				rt.rep.HandleNetMessage(m)
			}
		}
		for i := range c.routers {
			net.Register(i, demux)
		}
	}

	// One key chooser for the whole cluster: it is immutable (every draw
	// takes the drawing stream's own RNG), so sharing it changes no stream
	// and is safe across LP workers.
	kc := ycsb.NewZipfian(p.Keys, p.ZipfTheta)
	if cfg.Arrivals != nil {
		// Open loop: one source per node carrying an even share of the
		// cluster-wide offered rate, each with its own forked arrival and
		// workload streams.
		spec := *cfg.Arrivals
		spec.RatePerSec /= float64(p.Servers)
		for n, ns := range c.nodes {
			src := &openSource{ns: ns, rt: c.routers[n], kc: kc}
			src.gen = ycsb.MakeGenerator(&c.Cfg.Workload, kc, rng.ForkValue())
			arr, err := ycsb.NewArrivals(spec, rng.Fork())
			if err != nil {
				return nil, err
			}
			src.arr, src.rng = arr, rng.ForkValue()
			ns.src = src
			c.Sources = append(c.Sources, src)
		}
		return c, nil
	}

	// Clients: ClientsPerServer per node, all in one slab in node order, each
	// with an independent deterministic request stream over the shared key
	// space. A client's generator forks first, then its own RNG. Under
	// Transactional consistency or Scope persistency each client's session
	// comes from one slab per node, and under Transactional consistency its
	// three per-op transaction lists are carved from three arrays per node,
	// at XactionSize.
	txn := c.rules.ServesCommitted
	sessions := txn || c.rules.Persist == core.PersistAtScope
	per := p.ClientsPerServer
	c.Clients = make([]client, p.Servers*per)
	for n, ns := range c.nodes {
		ns.clients = c.Clients[n*per : (n+1)*per : (n+1)*per]
		var ses []session
		if sessions {
			ses = make([]session, per)
		}
		var ops []ycsb.Op
		var first []int64
		var stamps []protocol.Stamp
		if txn {
			x := p.XactionSize * per
			ops, first, stamps = make([]ycsb.Op, x), make([]int64, x), make([]protocol.Stamp, x)
		}
		for k := range ns.clients {
			cl := &ns.clients[k]
			cl.gen = ycsb.MakeGenerator(&c.Cfg.Workload, kc, rng.ForkValue())
			cl.rng = rng.ForkValue()
			cl.init(n*per+k, int32(k), c.routers[n])
			if sessions {
				s := &ses[k]
				s.scopeSeq = 1
				if txn {
					lo, hi := k*p.XactionSize, (k+1)*p.XactionSize
					s.txnOps, s.txnFirst, s.txnStamps = ops[lo:hi:hi], first[lo:hi:hi], stamps[lo:hi:hi]
				}
				cl.ses = s
			}
		}
	}
	return c, nil
}

// Start launches the load at simulated time 0: every closed-loop client, or
// every open-loop source's arrival chain.
func (c *Cluster) Start() {
	for _, src := range c.Sources {
		src.ns.eng.ScheduleEvent(0, src, srcStart)
	}
	for i := range c.Clients {
		cl := &c.Clients[i]
		cl.ns.eng.ScheduleEvent(0, cl, clientStart)
	}
}

// BeginMeasurement switches latency/throughput recording on.
func (c *Cluster) BeginMeasurement() {
	for _, m := range c.sets {
		m.measuring = true
	}
}

// StopMeasurement switches recording off.
func (c *Cluster) StopMeasurement() {
	for _, m := range c.sets {
		m.measuring = false
	}
}

// Collect assembles the Result after a run. window is the measured
// simulated duration.
func (c *Cluster) Collect(window int64, wall time.Duration) *Result {
	res := &Result{
		Config:    c.Cfg,
		SimTimeNs: c.nodes[0].eng.Now(),
		WallTime:  wall,
	}
	for _, m := range c.sets {
		res.ReadHist.Merge(&m.read)
		res.WriteHist.Merge(&m.write)
	}
	for _, ns := range c.nodes {
		res.Writes = append(res.Writes, ns.writeLog...)
		res.Reads = append(res.Reads, ns.readLog...)
	}
	if c.lps != nil {
		for _, ns := range c.nodes {
			res.Events += ns.eng.Processed()
			res.Sched.Merge(ns.eng.Stats())
		}
		res.LP = c.lps.Stats()
		res.LP.Mail = c.Net.MailDelivered()
	} else {
		res.Events = c.Eng.Processed()
		res.Sched = c.Eng.Stats()
	}
	for _, src := range c.Sources {
		res.Offered += src.arrivals
		res.Completed += src.late
		if src.peak > res.InflightPeak {
			res.InflightPeak = src.peak
		}
	}
	res.Summary = stats.Summarize(&res.ReadHist, &res.WriteHist, window)
	var waitSum float64
	for i, r := range c.Replicas {
		res.Protocol.Add(&r.M)
		res.NVMMeanWaitNs += c.Devices[i].MeanWait()
		res.DevSchedComps += c.Devices[i].Completions()
		if q := c.Devices[i].MaxOutstanding(); q > res.NVMMaxQueue {
			res.NVMMaxQueue = q
		}
		waitSum += c.Workers[i].MeanWait()
		if b := r.BufferLen(); b > res.BufferPeak {
			res.BufferPeak = b
		}
	}
	if res.Protocol.BufferPeak > res.BufferPeak {
		res.BufferPeak = res.Protocol.BufferPeak
	}
	if c.Cfg.Shards > 0 {
		// A flat cell reports no routing: its one all-servers shard is wiring,
		// not topology.
		res.ShardOps = make([]uint64, c.ring.shards)
		res.NodeOps = make([]uint64, len(c.routers))
		for _, rt := range c.routers {
			res.Routed += rt.fwdOps
			res.ShardOps[rt.shard] += rt.localOps + rt.execOps
			res.NodeOps[rt.node] = rt.localOps + rt.execOps
		}
	}
	n := float64(len(c.Replicas))
	res.NVMMeanWaitNs /= n
	res.WorkerMeanWait = waitSum / n
	res.NetMessages = c.Net.Messages()
	res.NetBytes = c.Net.Bytes()
	res.NetFastHops = c.Net.FastDeliveries()
	return res
}

// Close releases run infrastructure (the LP synchronizer's workers). Run and
// RunTo call it; direct-drive callers never start the synchronizer and need
// not.
func (c *Cluster) Close() {
	if c.lps != nil {
		c.lps.Close()
		c.lps = nil
	}
}

// Run executes the configured simulation: warmup, measurement, collection.
func Run(cfg Config) (*Result, error) {
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return runBuilt(c)
}

// runBuilt runs an already-constructed cluster (tests reserve records between
// New and the run) and closes it.
func runBuilt(c *Cluster) (*Result, error) {
	defer c.Close()
	start := time.Now()
	c.Start()
	c.advance(c.Cfg.WarmupNs)
	c.BeginMeasurement()
	c.advance(c.Cfg.WarmupNs + c.Cfg.MeasureNs)
	c.StopMeasurement()
	return c.Collect(c.Cfg.MeasureNs, time.Since(start)), nil
}

// RunTo starts the load, measures from time 0, runs until simulated time t
// and collects: the whole-history run that crash audits and history
// checkers inspect. It closes the cluster, which must not run further.
func (c *Cluster) RunTo(t int64) *Result {
	defer c.Close()
	start := time.Now()
	c.Start()
	c.BeginMeasurement()
	c.advance(t)
	return c.Collect(t, time.Since(start))
}

// advance runs whichever engine was built until simulated time t.
func (c *Cluster) advance(t int64) {
	if c.lps != nil {
		c.lps.Run(t)
	} else {
		c.Eng.Run(t)
	}
}

// String renders a one-line result header.
func (r *Result) String() string {
	return fmt.Sprintf("%s %s: %.2f Mops/s, rd %.0fns, wr %.0fns (p95 %d/%d)",
		r.Config.Model, r.Config.Workload.Name,
		r.Summary.Throughput/1e6, r.Summary.MeanRead, r.Summary.MeanWrite,
		r.Summary.P95Read, r.Summary.P95Write)
}
