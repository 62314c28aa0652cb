package harness

import (
	"encoding/csv"
	"io"
	"strconv"

	"repro/internal/cluster"
	"repro/internal/core"
)

// WriteCSV emits Figure 6 as tidy rows: one line per (model, metric) with
// raw and normalized values — ready for any plotting tool.
func (f *Fig6Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"consistency", "persistency", "metric", "raw", "normalized"}); err != nil {
		return err
	}
	for _, c := range core.Consistencies() {
		for _, p := range core.Persistencies() {
			m := core.Model{C: c, P: p}
			r, ok := f.Cells[m]
			if !ok {
				continue
			}
			for metric := Fig6Throughput; metric <= Fig6P95Write; metric++ {
				if err := cw.Write([]string{
					c.String(), p.String(), metric.String(),
					strconv.FormatFloat(fig6Metric(r, metric), 'g', -1, 64),
					strconv.FormatFloat(f.Normalized(m, metric), 'g', -1, 64),
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteCSV emits a sensitivity sweep as tidy rows: one line per
// (point, model) with throughput and its normalization.
func (s *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"point", "consistency", "persistency", "throughput_ops", "normalized"}); err != nil {
		return err
	}
	for i, label := range s.Labels {
		for _, m := range sweepModels() {
			r, ok := s.Points[i][m]
			if !ok {
				continue
			}
			if err := cw.Write([]string{
				label, m.C.String(), m.P.String(),
				strconv.FormatFloat(r.Throughput(), 'g', -1, 64),
				strconv.FormatFloat(s.Normalized(i, m), 'g', -1, 64),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV emits the durability audit as tidy rows.
func (d *DurabilityResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{"consistency", "persistency", "acked", "lost", "lost_rate", "recovered_keys", "monotonic", "non_stale"}); err != nil {
		return err
	}
	for _, r := range d.Rows {
		if err := cw.Write([]string{
			r.Model().C.String(), r.Model().P.String(),
			strconv.Itoa(r.AckedWrites), strconv.Itoa(r.LostAcked),
			strconv.FormatFloat(r.LostRate(), 'g', -1, 64),
			strconv.Itoa(r.Recovered.Keys()),
			strconv.FormatBool(r.MonotonicReads()), strconv.FormatBool(r.NonStaleReads()),
		}); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the capacity sweep as tidy rows: one line per open-loop
// cell, tagged with its phase (poisson or storm) and knee membership.
func (r *CapacityResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{
		"consistency", "persistency", "phase", "frac", "closed_ops",
		"offered_rate", "offered_ops", "achieved_ops", "knee",
		"p50_read_ns", "p99_read_ns", "p999_read_ns",
		"p50_write_ns", "p99_write_ns", "p999_write_ns", "inflight_peak",
	}); err != nil {
		return err
	}
	row := func(c *CapacityCurve, p *CapacityPoint, phase string, knee bool) error {
		s := p.Res.Summary
		return cw.Write([]string{
			c.Model.C.String(), c.Model.P.String(), phase,
			strconv.FormatFloat(p.Frac, 'g', -1, 64),
			strconv.FormatFloat(c.Closed.Summary.Throughput, 'g', -1, 64),
			strconv.FormatFloat(p.OfferedRate, 'g', -1, 64),
			strconv.FormatFloat(p.Offered(), 'g', -1, 64),
			strconv.FormatFloat(p.Achieved(), 'g', -1, 64),
			strconv.FormatBool(knee),
			strconv.FormatInt(s.P50Read, 10), strconv.FormatInt(s.P99Read, 10), strconv.FormatInt(s.P999Read, 10),
			strconv.FormatInt(s.P50Write, 10), strconv.FormatInt(s.P99Write, 10), strconv.FormatInt(s.P999Write, 10),
			strconv.Itoa(p.Res.InflightPeak),
		})
	}
	for _, c := range r.Curves {
		for j := range c.Points {
			if err := row(c, &c.Points[j], "poisson", j == c.Knee); err != nil {
				return err
			}
		}
		if err := row(c, &c.Storm, "storm", false); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV emits the scaling study as tidy rows: one line per cell, tagged
// with its phase (scale or skew) and the full topology shape.
func (r *ScalingResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	defer cw.Flush()
	if err := cw.Write([]string{
		"consistency", "persistency", "phase", "shards", "nodes", "rf", "theta",
		"placement", "replica_reads",
		"throughput_ops", "p95_read_ns", "p95_write_ns",
		"routed_frac", "shard_imbalance", "node_imbalance", "group_imbalance",
	}); err != nil {
		return err
	}
	row := func(m core.Model, phase string, shards int, theta float64, res *cluster.Result) error {
		s := res.Summary
		var total uint64
		for _, n := range res.ShardOps {
			total += n
		}
		placement := res.Config.Placement
		if placement == "" {
			placement = "hash"
		}
		return cw.Write([]string{
			m.C.String(), m.P.String(), phase,
			strconv.Itoa(shards), strconv.Itoa(shards * r.RF), strconv.Itoa(r.RF),
			strconv.FormatFloat(theta, 'g', -1, 64),
			placement, strconv.FormatBool(res.Config.ReplicaReads),
			strconv.FormatFloat(s.Throughput, 'g', -1, 64),
			strconv.FormatInt(s.P95Read, 10), strconv.FormatInt(s.P95Write, 10),
			strconv.FormatFloat(ratio(float64(res.Routed), float64(total)), 'g', -1, 64),
			strconv.FormatFloat(imbalance(res.ShardOps), 'g', -1, 64),
			strconv.FormatFloat(imbalance(res.NodeOps), 'g', -1, 64),
			strconv.FormatFloat(groupImbalance(res, r.RF), 'g', -1, 64),
		})
	}
	for _, c := range r.Curves {
		for j := range c.Points {
			p := &c.Points[j]
			if err := row(c.Model, "scale", p.Shards, p.Res.Config.Params.ZipfTheta, p.Res); err != nil {
				return err
			}
		}
	}
	for i := range r.Skew {
		sp := &r.Skew[i]
		if err := row(sp.Model, "skew", r.SkewShards, sp.Theta, sp.Res); err != nil {
			return err
		}
	}
	return nil
}
