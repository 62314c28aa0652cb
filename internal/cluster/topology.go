package cluster

import (
	"sort"

	"repro/internal/protocol"
)

// topology.go implements the sharded keyspace's placement layer: a
// consistent-hash ring (DDIA module 06's partitioning-by-hash shape) mapping
// every key to the shard that owns it. Each shard is a contiguous block of
// rf global node IDs running its own replica group (protocol.Membership).
// The ring decides ownership only; which group member executes a forwarded
// op is the router's pluggable placement policy (route.go) — the default
// fixed hash coordinator below, power-of-two-choices spreading for hot keys
// under Config.Placement == "load", or the least-loaded replica for reads
// under Config.ReplicaReads (loadtrack.go).
//
// Placement is fully deterministic — vnode positions are pure hashes of
// (shard, vnode), never drawn from an RNG — so every engine wiring and
// worker count sees the identical ring, and ring construction commutes with
// everything else in cluster.New.

// vnodesPerShard is how many virtual nodes each shard places on the ring.
// 64 vnodes keep the expected ownership imbalance under a few percent at
// every shard count the harness sweeps (1..32). The search over them runs
// once per key, when New fills ring.owners, then only for keys past Keys.
const vnodesPerShard = 64

// ring is the consistent-hash ring. Points are kept in two parallel slices
// sorted by position so the search walks one contiguous uint64 array.
type ring struct {
	shards int
	rf     int                 // replicas per shard = nodes per contiguous block
	pos    []uint64            // sorted vnode positions
	own    []int32             // own[i] = shard owning pos[i]
	owners []protocol.KeyOwner // key -> owner for [0, Keys), from PartitionKeys
}

// mix64 is the splitmix64 finalizer — the same avalanche mix the network
// jitter hash uses, applied here to place vnodes and hash keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// newRing places shards*vnodesPerShard points deterministically.
func newRing(shards, rf int) *ring {
	r := &ring{
		shards: shards,
		rf:     rf,
		pos:    make([]uint64, 0, shards*vnodesPerShard),
		own:    make([]int32, 0, shards*vnodesPerShard),
	}
	type point struct {
		pos   uint64
		shard int32
	}
	pts := make([]point, 0, shards*vnodesPerShard)
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			h := mix64(uint64(s)<<20 | uint64(v) | 0x5bd1e995<<32)
			pts = append(pts, point{pos: h, shard: int32(s)})
		}
	}
	// Ties (astronomically unlikely 64-bit collisions) break by shard ID so
	// the ring is a total order under any sort implementation.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].pos != pts[j].pos {
			return pts[i].pos < pts[j].pos
		}
		return pts[i].shard < pts[j].shard
	})
	for _, p := range pts {
		r.pos = append(r.pos, p.pos)
		r.own = append(r.own, p.shard)
	}
	return r
}

// owner returns the shard owning key: the first vnode clockwise from the
// key's hash. The binary search is written out by hand so the lookup makes
// zero allocations (sort.Search takes a closure).
func (r *ring) owner(key uint64) int {
	if key < uint64(len(r.owners)) {
		return int(r.owners[key].Shard)
	}
	h := mix64(key)
	lo, hi := 0, len(r.pos)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.pos[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.pos) {
		lo = 0 // wrap past the last vnode to the ring's start
	}
	return int(r.own[lo])
}

// coordSalt decorrelates the coordinator hash from the ownership hash so the
// two picks are independent.
const coordSalt = 0x9e3779b97f4a7c15

// coordinator returns the key's fixed hash-picked coordinator node within
// shard: an independent hash of the key, so forwarded traffic spreads over
// the owning group's replicas in aggregate (any Hermes replica can
// coordinate any request). This is the "hash" placement policy — one fixed
// node per key, which is exactly what concentrates a zipfian hot key.
func (r *ring) coordinator(key uint64, shard int) int {
	return shard*r.rf + int(mix64(key^coordSalt)%uint64(r.rf))
}

// shardOf returns the shard that global node id belongs to.
func (r *ring) shardOf(node int) int { return node / r.rf }
