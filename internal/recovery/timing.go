package recovery

import (
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/protocol"
)

// RecoveryTiming models how long post-crash recovery takes under a DDP
// model — the paper's Section 9 observation that "the complexity of the
// recovery is higher in the weaker models than in the stricter ones":
// strict models just reload their (identical) NVM images, while weaker
// models additionally run a voting round to reconcile divergent images.
type RecoveryTiming struct {
	Model core.Model

	// LocalScanNs is the time for every node (in parallel) to scan its NVM
	// image: keys / device parallelism * read latency.
	LocalScanNs int64
	// VotingNs is the reconciliation round for models whose NVM images can
	// diverge: each node ships (key, stamp) summaries to a recovery
	// coordinator, which broadcasts the winning versions back.
	VotingNs int64
	// TotalNs is the modeled wall-clock recovery time.
	TotalNs int64
	// NeedsVoting reports whether the model required the voting round.
	NeedsVoting bool
}

// TimeRecovery models the recovery duration for a crashed cluster with
// recovered key count keys. Only a model whose acknowledgments wait for
// every persist (core.DurableAtAck) skips the voting round: its NVM images
// diverge only in unacknowledged writes, so each one is already consistent.
func TimeRecovery(m core.Model, p params.Params, keys int) RecoveryTiming {
	t := RecoveryTiming{Model: m, NeedsVoting: core.RulesOf(m).AckDurability != core.DurableAtAck}

	// Local scan: the node streams its image from NVM; channel/bank
	// parallelism applies.
	parallel := int64(p.NVMChannels * p.NVMBanks)
	perNode := int64(keys)
	scans := (perNode + parallel - 1) / parallel
	t.LocalScanNs = scans * p.NVMReadLat

	if t.NeedsVoting {
		// Each node sends (key, stamp) = 16 B per key to the coordinator;
		// the coordinator merges and broadcasts winners. Two transfer
		// phases plus a round trip of coordination.
		bytes := int64(keys) * 16
		transfer := bytes * 8 * 1e9 / p.NetBandwidth
		t.VotingNs = 2*transfer + 2*p.NetRoundTrip
	}
	t.TotalNs = t.LocalScanNs + t.VotingNs
	return t
}

// TimeRecoveryOf measures a crashed cluster's actual recovered-key count
// and returns its modeled recovery time.
func TimeRecoveryOf(c *cluster.Cluster, rec *RecoveredState) RecoveryTiming {
	keys := rec.Keys()
	if keys == 0 {
		// Fall back to image sizes (recovery still scans them).
		for _, r := range c.Replicas {
			n := 0
			r.Versions(func(_ uint64, _, persisted protocol.Stamp) {
				if persisted != 0 {
					n++
				}
			})
			keys = max(keys, n)
		}
	}
	return TimeRecovery(c.Cfg.Model, c.Cfg.Params, keys)
}

// imageDivergence counts keys whose persisted stamp differs across nodes —
// the work a voting recovery actually reconciles. Exposed for experiments.
func ImageDivergence(c *cluster.Cluster) int {
	versions := make(map[uint64]protocol.Stamp)
	diverged := make(map[uint64]bool)
	for _, r := range c.Replicas {
		r.Versions(func(key uint64, _, persisted protocol.Stamp) {
			if persisted == 0 {
				return
			}
			if prev, seen := versions[key]; seen && prev != persisted {
				diverged[key] = true
			} else {
				versions[key] = persisted
			}
		})
	}
	return len(diverged)
}
