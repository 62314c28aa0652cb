// Package engines provides the in-memory key-value data structures that play
// the role of the paper's evaluated applications: a HashTable, an ordered Map
// (skiplist), a B-Tree, a B+Tree, and a memcached-like slab store.
//
// Each node in the simulated cluster holds two engine instances — the
// volatile store and the NVM image — so recovery tests operate on real data
// structures rather than assumptions. Engines are not safe for concurrent
// use; the simulator is single-goroutine by design.
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

// constructors maps every accepted engine name to its constructor.
var constructors = map[string]func() Engine{
	"":          func() Engine { return NewHashTable() },
	"hashtable": func() Engine { return NewHashTable() },
	"map":       func() Engine { return NewSkipList() },
	"skiplist":  func() Engine { return NewSkipList() },
	"btree":     func() Engine { return NewBTree() },
	"bplustree": func() Engine { return NewBPlusTree() },
	"memcache":  func() Engine { return NewMemcache(64 << 20) },
	"memcached": func() Engine { return NewMemcache(64 << 20) },
	"walstore":  func() Engine { return NewWALStore() },
	"wal":       func() Engine { return NewWALStore() },
}

// Known reports whether New accepts name, without building an engine.
func Known(name string) error {
	if _, ok := constructors[name]; !ok {
		return fmt.Errorf("engines: unknown engine %q", name)
	}
	return nil
}

// New constructs an engine by name. Supported names: "hashtable" (also ""),
// "map" (skiplist), "btree", "bplustree", "memcache", "walstore".
func New(name string) (Engine, error) {
	if err := Known(name); err != nil {
		return nil, err
	}
	return constructors[name](), nil
}

// Names lists the supported engine names, in the order the paper mentions
// the applications.
func Names() []string {
	return []string{"memcache", "hashtable", "map", "btree", "bplustree", "walstore"}
}

// Ordered reports whether the named engine iterates in key order.
func Ordered(name string) bool {
	switch name {
	case "map", "skiplist", "btree", "bplustree":
		return true
	}
	return false
}
