// Package engines provides the in-memory key-value data structures that play
// the role of the paper's evaluated applications: a HashTable, an ordered Map
// (skiplist), a B-Tree, a B+Tree, and a memcached-like slab store.
//
// The simulator builds no engine: a replica keeps each key's visible and
// persisted versions in its own key table, and of the chosen engine it reads
// only the Profile — the per-operation compute weight a request pays and the
// key order a scan walks. The implementations are real data structures with
// their own tests and the benchmark's hashtable kernel. Engines are not safe
// for concurrent use.
package engines

import "fmt"

// Item is a stored record. Version carries the protocol's version stamp so
// recovery audits can compare replica states.
type Item struct {
	Value   []byte
	Version uint64
}

// Engine is the contract every store implements.
type Engine interface {
	// Get returns the item for key and whether it exists.
	Get(key uint64) (Item, bool)
	// Put inserts or replaces the item for key.
	Put(key uint64, item Item)
	// Delete removes key, reporting whether it was present.
	Delete(key uint64) bool
	// Len returns the number of stored keys.
	Len() int
	// Range calls fn for every key in engine-defined order until fn
	// returns false. Ordered engines iterate in ascending key order.
	Range(fn func(key uint64, item Item) bool)
	// Name identifies the engine ("hashtable", "btree", ...).
	Name() string
	// OpCost returns a relative per-operation compute weight (1.0 =
	// hashtable). The simulator multiplies this into modeled CPU time,
	// standing in for the paper's Pin instruction traces.
	OpCost() float64
}

// Profile is what the simulator reads of an engine, without building one.
type Profile struct {
	OpCost  float64 // the engine's Engine.OpCost
	Ordered bool    // whether its Range visits keys in ascending order
}

// kinds maps every accepted engine name, aliases included, to its
// constructor and profile.
var kinds = map[string]struct {
	new func() Engine
	Profile
}{
	"":          {func() Engine { return NewHashTable() }, Profile{OpCost: 1.0}},
	"hashtable": {func() Engine { return NewHashTable() }, Profile{OpCost: 1.0}},
	"map":       {func() Engine { return NewSkipList() }, Profile{OpCost: 1.6, Ordered: true}},
	"skiplist":  {func() Engine { return NewSkipList() }, Profile{OpCost: 1.6, Ordered: true}},
	"btree":     {func() Engine { return NewBTree() }, Profile{OpCost: 1.8, Ordered: true}},
	"bplustree": {func() Engine { return NewBPlusTree() }, Profile{OpCost: 1.7, Ordered: true}},
	"memcache":  {func() Engine { return NewMemcache(64 << 20) }, Profile{OpCost: 1.2}},
	"memcached": {func() Engine { return NewMemcache(64 << 20) }, Profile{OpCost: 1.2}},
	"walstore":  {func() Engine { return NewWALStore() }, Profile{OpCost: 1.1}},
	"wal":       {func() Engine { return NewWALStore() }, Profile{OpCost: 1.1}},
}

// ProfileOf returns the profile of the engine New builds for name, or the
// error New returns for a name it does not accept.
func ProfileOf(name string) (Profile, error) {
	k, ok := kinds[name]
	if !ok {
		return Profile{}, fmt.Errorf("engines: unknown engine %q", name)
	}
	return k.Profile, nil
}

// New constructs an engine by name. Supported names: "hashtable" (also ""),
// "map" (skiplist), "btree", "bplustree", "memcache", "walstore".
func New(name string) (Engine, error) {
	if _, err := ProfileOf(name); err != nil {
		return nil, err
	}
	return kinds[name].new(), nil
}

// Names lists the supported engine names, in the order the paper mentions
// the applications.
func Names() []string {
	return []string{"memcache", "hashtable", "map", "btree", "bplustree", "walstore"}
}
