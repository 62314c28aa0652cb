package harness

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ycsb"
)

// The capacity experiment sweeps offered load against latency per DDP model.
// A closed loop cannot draw this curve: its clients slow down exactly when
// the system does, so it only ever reports the saturation point. The open
// loop keeps arrivals on schedule past saturation, which exposes the knee —
// the highest offered load the model still absorbs — and the tail blow-up
// beyond it.

// capacityFracs are the offered-load points, as multiples of each model's
// own closed-loop throughput. The closed loop caps in-flight requests at
// the client count, so it operates well below true server capacity — the
// knee typically sits several multiples above it. The log-spaced grid
// brackets that whole range.
var capacityFracs = []float64{0.5, 1, 2, 4, 8, 16}

// capacityStormFrac scales the hot-key storm cell's mean rate off the
// measured knee: under it, so any degradation is attributable to the storm
// itself rather than raw overload.
const capacityStormFrac = 0.75

// kneeRatio is the completion bar: the knee is the highest offered load
// where the cell still completes at least this fraction of its arrivals
// inside the measured window.
const kneeRatio = 0.95

// capacityModels are the four corners of the DDP matrix the sweep runs:
// strongest and weakest visibility crossed with strongest and weakest
// persistency. (Transactional consistency and scope persistency carry
// closed-loop session state, so the open loop rejects them.)
func capacityModels() []core.Model {
	return []core.Model{
		{C: core.Linearizable, P: core.Strict},
		{C: core.Linearizable, P: core.EventualP},
		{C: core.Eventual, P: core.Strict},
		{C: core.Eventual, P: core.EventualP},
	}
}

// CapacityPoint is one open-loop cell on a model's capacity curve.
type CapacityPoint struct {
	Frac        float64 // offered load as a fraction of the closed-loop baseline
	OfferedRate float64 // configured arrivals/sec
	Storm       bool    // bursty hot-key cell rather than plain Poisson
	Res         *cluster.Result
}

// Offered returns the measured offered rate (arrivals/sec in the window).
func (p *CapacityPoint) Offered() float64 {
	if p.Res.SimTimeNs <= 0 {
		return 0
	}
	return float64(p.Res.Offered) / (float64(p.Res.SimTimeNs) / 1e9)
}

// Achieved returns the completion rate (completions/sec in the window).
func (p *CapacityPoint) Achieved() float64 {
	if p.Res.SimTimeNs <= 0 {
		return 0
	}
	return float64(p.Res.Completed) / (float64(p.Res.SimTimeNs) / 1e9)
}

// Sustained reports whether the cell kept up with its arrival schedule.
func (p *CapacityPoint) Sustained() bool {
	return p.Res.Offered > 0 &&
		float64(p.Res.Completed) >= kneeRatio*float64(p.Res.Offered)
}

// CapacityCurve is one model's sweep: closed-loop baseline, the Poisson
// points in capacityFracs order, the knee, and the storm cell.
type CapacityCurve struct {
	Model  core.Model
	Closed *cluster.Result // closed-loop baseline that anchors the multiples
	Points []CapacityPoint // one per capacityFracs entry, in order
	Storm  CapacityPoint   // bursty + hot-key cell at capacityStormFrac x knee

	// Knee indexes the highest sustained point in Points, -1 when even the
	// lowest offered load fell behind.
	Knee int
}

// KneeRate returns the knee's offered rate in arrivals/sec (0 if none).
func (c *CapacityCurve) KneeRate() float64 {
	if c.Knee < 0 {
		return 0
	}
	return c.Points[c.Knee].OfferedRate
}

// CapacityResult holds the full experiment: one curve per corner model.
type CapacityResult struct {
	Curves []*CapacityCurve
}

// Capacity runs the offered-load sweep in three phases. Phase 1 runs the
// four corner models closed-loop to anchor each one's operating point;
// phase 2 fans the Poisson multiple grid out in a single sweep so cells
// spread across cores, then locates each model's knee; phase 3 replays one
// bursty hot-key storm per model at capacityStormFrac of its knee rate, so
// storm damage is measured below raw overload.
func Capacity(o Options) (*CapacityResult, error) {
	models := capacityModels()
	baseRes, err := runCells(o, onWorkloadA(o, models), measured)
	if err != nil {
		return nil, fmt.Errorf("capacity baselines: %w", err)
	}

	curves := make([]*CapacityCurve, len(models))
	var open []cell
	for i, m := range models {
		closed := baseRes[i]
		if closed.Summary.Throughput <= 0 {
			return nil, fmt.Errorf("capacity: %s closed-loop baseline measured zero throughput", m)
		}
		curves[i] = &CapacityCurve{Model: m, Closed: closed, Knee: -1}
		for _, f := range capacityFracs {
			oo := o
			oo.Arrivals = &ycsb.ArrivalSpec{
				Shape:      ycsb.ShapePoisson,
				RatePerSec: f * closed.Summary.Throughput,
			}
			curves[i].Points = append(curves[i].Points,
				CapacityPoint{Frac: f, OfferedRate: oo.Arrivals.RatePerSec})
			open = append(open, cell{oo, m, ycsb.WorkloadA})
		}
	}
	openRes, err := runCells(o, open, measured)
	if err != nil {
		return nil, fmt.Errorf("capacity sweep: %w", err)
	}
	idx := 0
	for _, c := range curves {
		for j := range c.Points {
			c.Points[j].Res = openRes[idx]
			idx++
			if c.Points[j].Sustained() {
				c.Knee = j
			}
		}
	}

	// Phase 3: storms. The mean rate rides under the knee (falling back to
	// the grid floor when nothing sustained) while bursts concentrate half
	// the arrivals onto the hottest zipfian ranks.
	storms := make([]cell, len(curves))
	for i, c := range curves {
		anchor := c.Points[0].OfferedRate
		if c.Knee >= 0 {
			anchor = c.Points[c.Knee].OfferedRate
		}
		oo := o
		oo.Arrivals = &ycsb.ArrivalSpec{
			Shape:       ycsb.ShapeBursty,
			RatePerSec:  capacityStormFrac * anchor,
			BurstFactor: 4,
			BurstFrac:   0.1,
			HotFrac:     0.5,
			HotKeys:     8,
		}
		c.Storm = CapacityPoint{
			Frac:        ratio(oo.Arrivals.RatePerSec, c.Closed.Summary.Throughput),
			OfferedRate: oo.Arrivals.RatePerSec, Storm: true,
		}
		storms[i] = cell{oo, c.Model, ycsb.WorkloadA}
	}
	stormRes, err := runCells(o, storms, measured)
	if err != nil {
		return nil, fmt.Errorf("capacity storms: %w", err)
	}
	for i, c := range curves {
		c.Storm.Res = stormRes[i]
	}
	return &CapacityResult{Curves: curves}, nil
}

// WriteText renders one capacity table per model: offered vs achieved rate
// and the read/write latency quantiles, with the knee marked.
func (r *CapacityResult) WriteText(w io.Writer) {
	header(w, "Capacity: offered load vs latency (open loop, YCSB-A)",
		"Offered rates are multiples of each model's closed-loop throughput; knee = highest offered load with >=95% completion.")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "\n%s  (closed-loop baseline %.2f Mops/s)\n",
			c.Model, c.Closed.Summary.Throughput/1e6)
		fmt.Fprintf(w, "  %-6s %10s %10s %9s %9s %9s %9s %9s %9s %8s\n",
			"frac", "offered/s", "achieved/s",
			"p50 rd", "p99 rd", "p999 rd", "p50 wr", "p99 wr", "p999 wr", "peak")
		for j := range c.Points {
			p := &c.Points[j]
			mark := " "
			if j == c.Knee {
				mark = "*"
			}
			writeCapacityRow(w, mark, fmt.Sprintf("%.2f", p.Frac), p)
		}
		writeCapacityRow(w, "!", "storm", &c.Storm)
		if c.Knee < 0 {
			fmt.Fprintf(w, "  knee: none sustained (capacity below %.2fx closed loop)\n", capacityFracs[0])
		} else {
			fmt.Fprintf(w, "  knee: %.2fx closed loop = %.2f Mops/s offered (* above; ! = bursty hot-key storm at %.2fx the knee rate)\n",
				c.Points[c.Knee].Frac, c.KneeRate()/1e6, capacityStormFrac)
		}
	}
}

func writeCapacityRow(w io.Writer, mark, label string, p *CapacityPoint) {
	s := p.Res.Summary
	fmt.Fprintf(w, " %s%-6s %10.0f %10.0f %9d %9d %9d %9d %9d %9d %8d\n",
		mark, label, p.Offered(), p.Achieved(),
		s.P50Read, s.P99Read, s.P999Read,
		s.P50Write, s.P99Write, s.P999Write,
		p.Res.InflightPeak)
}
