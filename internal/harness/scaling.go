package harness

import (
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ycsb"
)

// scaling.go runs the sharded scale-out study (ROADMAP item 1): simulated
// throughput versus cluster size for the four corner DDP models, sweeping
// the shard count over scalingShards with a fixed per-shard replication
// factor, plus a hot-shard scenario contrasting a uniform keyspace against
// a heavily skewed zipfian one at the widest sharded point.

// scalingShards are the shard counts the curve sweeps. The replication
// factor is Options.Params.Servers (each shard is a paper-sized replica
// group), so the default 5-server configuration sweeps 5..160 simulated
// nodes and the shards=1 point is exactly the paper's cluster.
func scalingShards() []int { return []int{1, 4, 16, 32} }

// scalingSkewShards is the shard count of the hot-shard study.
const scalingSkewShards = 16

// scalingSkewTheta contrasts a uniform keyspace (0) against heavy zipfian
// skew on the same cluster.
var scalingSkewTheta = []float64{0, 0.999}

// ScalingPoint is one (model, shard count) closed-loop cell.
type ScalingPoint struct {
	Shards int
	Nodes  int
	Res    *cluster.Result
}

// RoutedFrac returns the fraction of routed ops forwarded across shards.
func (p *ScalingPoint) RoutedFrac() float64 {
	_, total := maxTotal(p.Res.ShardOps)
	return ratio(float64(p.Res.Routed), float64(total))
}

// ScalingCurve is one model's throughput-vs-cluster-size curve, in
// scalingShards order.
type ScalingCurve struct {
	Model  core.Model
	Points []ScalingPoint
}

// SkewPoint is one hot-shard cell: a model run at scalingSkewShards shards
// under the given zipfian theta and placement policy (the skew phase is a
// placement-ablation grid: fixed-hash vs load-aware spreading, plus
// least-loaded replica reads on the weak-visibility models).
type SkewPoint struct {
	Model        core.Model
	Theta        float64
	Placement    string
	ReplicaReads bool
	Res          *cluster.Result
}

// ScalingResult holds the full experiment.
type ScalingResult struct {
	RF         int // replicas per shard (nodes = RF x shards)
	Curves     []*ScalingCurve
	SkewShards int
	Skew       []SkewPoint // models x scalingSkewTheta, theta-major per model
}

// maxTotal returns the largest of ops and their sum.
func maxTotal(ops []uint64) (max, total uint64) {
	for _, n := range ops {
		total += n
		if n > max {
			max = n
		}
	}
	return max, total
}

// imbalance returns max/mean of executed ops, one count per shard or per
// node (1 = perfectly balanced; 0 when the run recorded no such accounting).
// Per node it is the grain that sees placement policies move work inside a
// replica group; per-shard totals are fixed by data ownership.
func imbalance(ops []uint64) float64 {
	max, total := maxTotal(ops)
	if total == 0 {
		return 0
	}
	return float64(max) * float64(len(ops)) / float64(total)
}

// groupImbalance returns max/mean executed ops across the replicas of the
// busiest shard's group — the concentration coordinator spreading attacks:
// under fixed-hash placement a zipfian hot key pins ~all of its shard's
// forwarded ops on one coordinator (imbalance near rf), while load-aware
// spreading walks it across the group (near 1).
func groupImbalance(r *cluster.Result, rf int) float64 {
	if len(r.NodeOps) == 0 || len(r.ShardOps) == 0 || rf <= 0 {
		return 0
	}
	hottest, _ := maxTotal(r.ShardOps)
	hot := slices.Index(r.ShardOps, hottest)
	return imbalance(r.NodeOps[hot*rf : hot*rf+rf])
}

// Scaling runs the scale-out grid: for each corner model and shard count it
// simulates a cluster of shards x RF nodes behind the consistent-hash
// routing layer, then replays the widest sharded configuration under
// uniform and heavily skewed key popularity for the hot-shard contrast.
func Scaling(o Options) (*ScalingResult, error) {
	rf := o.Params.Servers
	if o.Shards > 1 {
		rf = o.Params.Servers / o.Shards
	}
	models := capacityModels()

	res := &ScalingResult{RF: rf, SkewShards: scalingSkewShards}
	var cells []cell
	for _, m := range models {
		curve := &ScalingCurve{Model: m}
		for _, s := range scalingShards() {
			oo := o
			oo.Shards = s
			oo.Params.Servers = s * rf
			curve.Points = append(curve.Points, ScalingPoint{Shards: s, Nodes: s * rf})
			cells = append(cells, cell{oo, m, ycsb.WorkloadA})
		}
		res.Curves = append(res.Curves, curve)
	}
	heavy := scalingSkewTheta[len(scalingSkewTheta)-1]
	for _, m := range models {
		// The ablation ladder: fixed-hash at every theta for the skew
		// baseline, then load-aware spreading and (where visibility allows)
		// least-loaded replica reads at the heavy theta.
		type variant struct {
			theta     float64
			placement string
			rr        bool
		}
		var vars []variant
		for _, theta := range scalingSkewTheta {
			vars = append(vars, variant{theta, "hash", false})
		}
		vars = append(vars, variant{heavy, "load", false})
		if !core.RulesOf(m).InvAckVal {
			vars = append(vars, variant{heavy, "load", true})
		}
		for _, v := range vars {
			oo := o
			oo.Shards = scalingSkewShards
			oo.Params.Servers = scalingSkewShards * rf
			oo.Params.ZipfTheta = v.theta
			oo.Placement = v.placement
			oo.ReplicaReads = v.rr
			res.Skew = append(res.Skew, SkewPoint{
				Model: m, Theta: v.theta, Placement: v.placement, ReplicaReads: v.rr,
			})
			cells = append(cells, cell{oo, m, ycsb.WorkloadA})
		}
	}

	rs, err := runCells(o, cells, measured)
	if err != nil {
		return nil, fmt.Errorf("scaling sweep: %w", err)
	}
	idx := 0
	for _, c := range res.Curves {
		for j := range c.Points {
			c.Points[j].Res = rs[idx]
			idx++
		}
	}
	for i := range res.Skew {
		res.Skew[i].Res = rs[idx]
		idx++
	}
	return res, nil
}

// WriteText renders one scaling table per model — throughput against
// cluster size with per-point speedup over the single-shard group, routed
// fraction, and wall-clock cost — then the hot-shard contrast.
func (r *ScalingResult) WriteText(w io.Writer) {
	header(w, "Scaling: simulated throughput vs cluster size (closed loop, YCSB-A)",
		fmt.Sprintf("Each shard is an independent %d-replica group behind a consistent-hash ring; clients route per-op to the owning shard.", r.RF))
	for _, c := range r.Curves {
		fmt.Fprintf(w, "\n%s\n", c.Model)
		fmt.Fprintf(w, "  %6s %6s %12s %8s %8s %9s %9s %10s\n",
			"shards", "nodes", "Mops/s", "speedup", "routed", "p95 rd", "p95 wr", "wall")
		base := float64(0)
		if len(c.Points) > 0 {
			base = c.Points[0].Res.Summary.Throughput
		}
		for j := range c.Points {
			p := &c.Points[j]
			s := p.Res.Summary
			fmt.Fprintf(w, "  %6d %6d %12.2f %7.2fx %7.1f%% %9d %9d %10v\n",
				p.Shards, p.Nodes, s.Throughput/1e6, ratio(s.Throughput, base),
				100*p.RoutedFrac(), s.P95Read, s.P95Write,
				p.Res.WallTime.Round(time.Millisecond))
		}
	}
	fmt.Fprintf(w, "\nHot-shard skew at %d shards (zipfian theta x placement policy, same cluster):\n", r.SkewShards)
	fmt.Fprintf(w, "  %-34s %6s %6s %3s %12s %9s %9s %9s %8s\n",
		"model", "theta", "place", "rr", "Mops/s", "shard imb", "node imb", "group imb", "hottest")
	for i := range r.Skew {
		sp := &r.Skew[i]
		max, total := maxTotal(sp.Res.ShardOps)
		rr := "-"
		if sp.ReplicaReads {
			rr = "y"
		}
		fmt.Fprintf(w, "  %-34s %6.3f %6s %3s %12.2f %8.2fx %8.2fx %8.2fx %7.1f%%\n",
			sp.Model, sp.Theta, sp.Placement, rr, sp.Res.Summary.Throughput/1e6,
			imbalance(sp.Res.ShardOps), imbalance(sp.Res.NodeOps), groupImbalance(sp.Res, r.RF),
			100*ratio(float64(max), float64(total)))
	}
	fmt.Fprintln(w, "  shard imb = max/mean ops per shard (fixed by data ownership — no placement policy can move it);")
	fmt.Fprintln(w, "  node imb = max/mean ops per node cluster-wide; group imb = max/mean ops across the busiest")
	fmt.Fprintln(w, "  shard's replicas — the coordinator concentration that \"load\" placement and replica reads attack;")
	fmt.Fprintln(w, "  hottest = busiest shard's share of all executed ops.")
}
