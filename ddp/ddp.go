// Package ddp is the public API of the Distributed Data Persistency (DDP)
// library — a faithful reimplementation of "Distributed Data Persistency"
// (MICRO 2021).
//
// A DDP model binds a data consistency model (when an update becomes
// visible at the volatile replicas — its Visibility Point) with a memory
// persistency model (when it becomes durable in NVM — its Durability
// Point). The library provides:
//
//   - the 5x5 model matrix and the paper's qualitative trade-off ratings
//     (Table 4) via Traits and AllModels. The 25 cells are the only models:
//     a Model outside the matrix fails Run with an error naming it;
//   - a deterministic discrete-event simulation of a replicated in-memory
//     store running any of the 25 models over modeled RDMA-class networking
//     and NVM (Run);
//   - crash injection (of every node or some) with voting-based recovery
//     and durability/intuition audits (RunWithCrash, RunWithPartialCrash);
//   - the full experiment harness regenerating the paper's tables and
//     figures (package internal/harness, surfaced by cmd/ddpbench).
//
// Quickstart:
//
//	res, err := ddp.Run(ddp.Config{
//		Model:    ddp.Model{Consistency: ddp.Causal, Persistency: ddp.Synchronous},
//		Workload: ddp.WorkloadA,
//	})
//	fmt.Printf("throughput: %.1f Mops/s\n", res.ThroughputOps/1e6)
package ddp

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/recovery"
	"repro/internal/ycsb"
)

// Consistency selects a data consistency model.
type Consistency = core.Consistency

// Persistency selects a memory persistency model.
type Persistency = core.Persistency

// The consistency models (strictest first).
const (
	Linearizable            = core.Linearizable
	ReadEnforcedConsistency = core.ReadEnforcedC
	Transactional           = core.Transactional
	Causal                  = core.Causal
	EventualConsistency     = core.Eventual
)

// The persistency models (strictest first).
const (
	Strict                  = core.Strict
	Synchronous             = core.Synchronous
	ReadEnforcedPersistency = core.ReadEnforcedP
	Scope                   = core.Scope
	EventualPersistency     = core.EventualP
)

// Model is a DDP model: <Consistency, Persistency>.
type Model struct {
	Consistency Consistency
	Persistency Persistency
}

// String renders the paper's <C, P> notation.
func (m Model) String() string { return m.toCore().String() }

func (m Model) toCore() core.Model { return core.Model{C: m.Consistency, P: m.Persistency} }

func fromCore(m core.Model) Model { return Model{Consistency: m.C, Persistency: m.P} }

// ParseModel accepts "<Causal, Synchronous>", "causal,sync", etc.
func ParseModel(s string) (Model, error) {
	m, err := core.ParseModel(s)
	if err != nil {
		return Model{}, err
	}
	return fromCore(m), nil
}

// AllModels enumerates the 25 <consistency, persistency> bindings.
func AllModels() []Model {
	var out []Model
	for _, m := range core.AllModels() {
		out = append(out, fromCore(m))
	}
	return out
}

// Baseline is the model the paper normalizes everything to.
var Baseline = fromCore(core.Baseline)

// Workload identifies a YCSB request mix.
type Workload = ycsb.Workload

// The paper's workloads.
var (
	WorkloadA = ycsb.WorkloadA // 50% reads / 50% writes
	WorkloadB = ycsb.WorkloadB // 95% reads
	WorkloadC = ycsb.WorkloadC // 100% reads
	WorkloadW = ycsb.WorkloadW // 95% writes
	WorkloadE = ycsb.WorkloadE // 95% short range scans (beyond-paper extension)
	WorkloadF = ycsb.WorkloadF // 50% reads / 50% read-modify-writes (extension)
)

// Params re-exports the modeled architecture parameters (Table 5 defaults
// via DefaultParams).
type Params = params.Params

// DefaultParams returns the paper's Table 5 configuration: 5 servers, 20
// clients and 20 workers each, 1 us network round trip, 140/400 ns NVM.
func DefaultParams() Params { return params.Default() }

// Config describes one simulation.
type Config struct {
	// Model is the DDP model to run. The zero Model is <Linearizable,
	// Strict>, not the paper's Baseline <Linearizable, Synchronous>.
	Model Model
	// Workload is the request mix (default: WorkloadA).
	Workload Workload
	// Engine names the KV engine whose cost profile each node models; ""
	// is "hashtable", and the -engine help of ddpsim and ddpbench lists
	// every name. It sets the per-request compute weight and the order a
	// scan visits keys in; a replica keeps its versions in its own key
	// table either way.
	Engine string
	// Params overrides the modeled architecture (default: DefaultParams).
	Params Params
	// Seed makes runs reproducible; equal seeds give identical results.
	Seed uint64
	// WarmupNs and MeasureNs bound the run in simulated nanoseconds
	// (defaults: 1 ms and 5 ms).
	WarmupNs  int64
	MeasureNs int64
}

func (c Config) toCluster() cluster.Config {
	return cluster.Config{
		Model:     c.Model.toCore(),
		Workload:  c.Workload,
		Engine:    c.Engine,
		Params:    c.Params,
		Seed:      c.Seed,
		WarmupNs:  c.WarmupNs,
		MeasureNs: c.MeasureNs,
	}
}

// Result reports a run's measurements. All times are simulated nanoseconds.
type Result struct {
	Model    Model
	Workload string

	Ops           uint64  // completed client requests in the window
	ThroughputOps float64 // requests per simulated second
	MeanReadNs    float64
	MeanWriteNs   float64
	MeanNs        float64
	P95ReadNs     int64
	P95WriteNs    int64
	P99ReadNs     int64
	P99WriteNs    int64

	ReadStalls       uint64  // reads that had to wait
	TxnConflictRate  float64 // fraction of transactions squashed
	ReadConflictRate float64 // reads hitting unpersisted latest versions
	CausalBufferPeak int     // reorder-buffer high-water mark
	NetworkMessages  uint64
	NetworkBytes     uint64
	NVMQueueMeanNs   float64 // mean NVM bank queueing delay
	Persists         uint64
}

func toResult(r *cluster.Result) *Result {
	return &Result{
		Model:            fromCore(r.Config.Model),
		Workload:         r.Config.Workload.Name,
		Ops:              r.Summary.Ops,
		ThroughputOps:    r.Summary.Throughput,
		MeanReadNs:       r.Summary.MeanRead,
		MeanWriteNs:      r.Summary.MeanWrite,
		MeanNs:           r.Summary.MeanAll,
		P95ReadNs:        r.Summary.P95Read,
		P95WriteNs:       r.Summary.P95Write,
		P99ReadNs:        r.Summary.P99Read,
		P99WriteNs:       r.Summary.P99Write,
		ReadStalls:       r.Protocol.ReadStalls,
		TxnConflictRate:  r.Protocol.TxnConflictRate(),
		ReadConflictRate: r.Protocol.ReadConflictRate(),
		CausalBufferPeak: r.BufferPeak,
		NetworkMessages:  r.NetMessages,
		NetworkBytes:     r.NetBytes,
		NVMQueueMeanNs:   r.NVMMeanWaitNs,
		Persists:         r.Protocol.Persists,
	}
}

// String renders a one-line summary.
func (r *Result) String() string {
	return fmt.Sprintf("%s %s: %.2f Mops/s (rd %.0f ns, wr %.0f ns)",
		r.Model, r.Workload, r.ThroughputOps/1e6, r.MeanReadNs, r.MeanWriteNs)
}

// Run simulates cfg and returns its measurements.
func Run(cfg Config) (*Result, error) {
	res, err := cluster.Run(cfg.toCluster())
	if err != nil {
		return nil, err
	}
	return toResult(res), nil
}

// CrashReport is the outcome of a crash/recovery experiment.
type CrashReport struct {
	Model Model

	AckedWrites int // writes acknowledged to clients before the crash
	LostWrites  int // acknowledged writes that did not survive recovery
	// LostConfirmedDurable counts losses of writes the model *promised*
	// were durable. It is always 0 for a correct protocol.
	LostConfirmedDurable int
	RecoveredKeys        int

	// MonotonicReads and NonStaleReads are the measured Table 4 verdicts.
	MonotonicReads bool
	NonStaleReads  bool
}

// LossRate returns the fraction of acknowledged writes lost.
func (c *CrashReport) LossRate() float64 {
	if c.AckedWrites == 0 {
		return 0
	}
	return float64(c.LostWrites) / float64(c.AckedWrites)
}

// RunWithCrash simulates cfg, crashes every node's volatile state at
// crashAtNs of simulated time, recovers from the NVM images with a
// newest-vote recovery, and audits what survived. It is RunWithPartialCrash
// with every node crashed.
func RunWithCrash(cfg Config, crashAtNs int64) (*CrashReport, error) {
	return RunWithPartialCrash(cfg, crashAtNs, nil)
}

// RunWithPartialCrash fails only the given nodes at crashAtNs (nil: every
// node, as RunWithCrash); recovery draws on the survivors' volatile replicas
// plus every NVM image. It demonstrates the paper's motivation: remote
// replicas mask machine failures, while only NVM survives a full-system one.
// A node outside [0, Servers), a repeated node or a negative crash time is
// an error.
func RunWithPartialCrash(cfg Config, crashAtNs int64, nodes []int) (*CrashReport, error) {
	rep, err := recovery.CrashAndRecover(cfg.toCluster(), crashAtNs, nodes)
	if err != nil {
		return nil, err
	}
	return &CrashReport{
		Model:                fromCore(rep.Model()),
		AckedWrites:          rep.AckedWrites,
		LostWrites:           rep.LostAcked,
		LostConfirmedDurable: rep.LostConfirmedDurable,
		RecoveredKeys:        rep.Recovered.Keys(),
		MonotonicReads:       rep.MonotonicReads(),
		NonStaleReads:        rep.NonStaleReads(),
	}, nil
}

// VerifyReport is the outcome of checking a run's recorded history against
// per-key register linearizability (unique, totally ordered writes make the
// check exact).
type VerifyReport struct {
	Model           Model
	Linearizable    bool
	WritesChecked   int
	ReadsChecked    int
	StaleReads      int     // reads older than a write completed before they began
	StaleReadRate   float64 // fraction of reads that were stale
	OrderViolations int     // write real-time order vs version order inversions
}

// Verify runs cfg with history tracking and checks the observed history:
// Linearizable-consistency runs must pass; Read-Enforced shows its tiny
// early-completion staleness window; weak models fail with stale reads.
// The history covers the whole run, warm-up included (Config's defaults
// apply to zero windows): it is the crash path's, with the crash at the end
// of the window.
func Verify(cfg Config) (*VerifyReport, error) {
	ccfg := cfg.toCluster()
	d := ccfg.WithDefaults()
	rep, err := recovery.CrashAndRecover(ccfg, d.WarmupNs+d.MeasureNs, nil)
	if err != nil {
		return nil, err
	}
	lin := rep.Linear
	return &VerifyReport{
		Model:           cfg.Model,
		Linearizable:    lin.Linearizable(),
		WritesChecked:   lin.WritesChecked,
		ReadsChecked:    lin.ReadsChecked,
		StaleReads:      lin.StaleReadViolations,
		StaleReadRate:   lin.StaleRate(),
		OrderViolations: lin.WriteOrderViolations,
	}, nil
}
