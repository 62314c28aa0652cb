package harness

import (
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/ycsb"
)

// Timeline is the rendered protocol trace of one illustrative operation
// sequence under one model — the textual counterpart of one subfigure of
// the paper's Figures 2-5.
type Timeline struct {
	Model   core.Model
	Caption string
	Cluster *cluster.Cluster
}

// TimelinesResult reproduces the paper's protocol figures.
type TimelinesResult struct {
	Rows []Timeline
}

// timelineCluster builds a quiet (no background clients) traced 3-node
// cluster.
func timelineCluster(o Options, m core.Model) (*cluster.Cluster, error) {
	cfg := o.config(m, ycsb.WorkloadA)
	cfg.Params.Servers = 3
	cfg.Params.Keys = 16
	cfg.Params.NetJitter = 0 // clean, readable timelines
	cfg.TraceProtocol = true
	return cluster.New(cfg)
}

// Timelines drives one small operation sequence per illustrated model and
// records the full protocol trace. No load is applied: the timelines show
// the protocol's structure, exactly like the paper's figures.
func Timelines(o Options) (*TimelinesResult, error) {
	res := &TimelinesResult{}

	// Figures 2 and 3: one client write at node 0, then a read at follower
	// node 1 issued shortly after the INV/UPD lands there.
	writeRead := []struct {
		m       core.Model
		caption string
	}{
		{core.Model{C: core.Linearizable, P: core.Synchronous}, "Figure 2(a,b): write waits for remote persists; follower read stalls until VAL"},
		{core.Model{C: core.ReadEnforcedC, P: core.Synchronous}, "Figure 2(c,d): write returns immediately; reads stall until VAL"},
		{core.Model{C: core.Causal, P: core.Synchronous}, "Figure 2(e,f): UPD+cauhist; reads return the latest persisted version"},
		{core.Model{C: core.Eventual, P: core.Synchronous}, "Figure 2(g,h): lazy UPD; reads return the latest persisted version"},
		{core.Model{C: core.Linearizable, P: core.ReadEnforcedP}, "Figure 3(a,b): ACK_c/ACK_p split; reads stall until VAL_p"},
		{core.Model{C: core.Causal, P: core.ReadEnforcedP}, "Figure 3(c,d): write fast; read waits for the latest visible version to persist"},
	}
	for _, wr := range writeRead {
		c, err := timelineCluster(o, wr.m)
		if err != nil {
			return nil, err
		}
		c.Eng.Schedule(0, func() {
			c.Replicas[0].ClientWrite(3, 0, 0, func(protocol.Stamp) {})
		})
		c.Eng.Schedule(700, func() {
			c.Replicas[1].ClientRead(3, 0, func(protocol.Stamp) {})
		})
		c.Eng.Run(40_000)
		res.Rows = append(res.Rows, Timeline{Model: wr.m, Caption: wr.caption, Cluster: c})
	}

	// Figure 4: a transaction — init, write, read, end.
	{
		m := core.Model{C: core.Transactional, P: core.Synchronous}
		c, err := timelineCluster(o, m)
		if err != nil {
			return nil, err
		}
		c.Eng.Schedule(0, func() {
			r := c.Replicas[0]
			r.ClientInitTxn(nil, func(id uint64) {
				r.ClientWrite(3, 0, id, func(protocol.Stamp) {
					r.ClientRead(3, id, func(protocol.Stamp) {
						r.ClientEndTxn(id, func(bool) {})
					})
				})
			})
		})
		c.Eng.Run(60_000)
		res.Rows = append(res.Rows, Timeline{
			Model:   m,
			Caption: "Figure 4: INITX / fast writes / fast reads / ENDX bunches the persists",
			Cluster: c,
		})
	}

	// Figure 5: two scoped writes, then the [PERSIST]s barrier.
	{
		m := core.Model{C: core.Linearizable, P: core.Scope}
		c, err := timelineCluster(o, m)
		if err != nil {
			return nil, err
		}
		const scope = 7
		c.Eng.Schedule(0, func() {
			r := c.Replicas[0]
			r.ClientWrite(3, scope, 0, func(protocol.Stamp) {
				r.ClientWrite(4, scope, 0, func(protocol.Stamp) {
					r.ClientPersistScope(scope, func() {})
				})
			})
		})
		c.Eng.Run(60_000)
		res.Rows = append(res.Rows, Timeline{
			Model:   m,
			Caption: "Figure 5: writes validate on ACK_c; [PERSIST]s persists the whole scope",
			Cluster: c,
		})
	}
	return res, nil
}

// WriteText renders every timeline.
func (t *TimelinesResult) WriteText(w io.Writer) {
	header(w, "Protocol timelines (Figures 2-5)",
		"One illustrative operation sequence per model on a quiet 3-node cluster.")
	for _, row := range t.Rows {
		fmt.Fprintf(w, "\n%s — %s\n\n", row.Model, row.Caption)
		row.Cluster.Trace.Render(w, 3)
	}
}
