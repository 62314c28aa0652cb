// Package engines names the KV engines a run can model and holds the one
// engine data structure the repository still builds.
//
// The paper charged each request the compute of a traced application
// (memcached, a hash table, ordered maps and trees). The simulator models an
// engine choice as a Profile: the per-operation compute weight a request
// pays and whether a scan walks keys in ascending order. A replica keeps
// each key's visible and persisted versions in its own key table whichever
// engine is named, so no engine instance takes part in a run.
//
//	name       OpCost  Ordered
//	memcache   1.2     no
//	hashtable  1.0     no      (also "", the default)
//	map        1.6     yes
//	btree      1.8     yes
//	bplustree  1.7     yes
//	walstore   1.1     no
//
// HashTable is the open-addressing table the benchmark's
// engines.hashtable_op_ns kernel times; the simulator does not use it.
package engines

import (
	"fmt"
	"strings"
)

// Item is a stored record. Version carries the protocol's version stamp.
type Item struct {
	Value   []byte
	Version uint64
}

// Profile is what the simulator reads of an engine.
type Profile struct {
	OpCost  float64 // relative per-operation compute weight (1.0 = hashtable)
	Ordered bool    // whether a scan visits keys in ascending order
}

// profiles holds one row per engine, in the order the paper mentions the
// applications.
var profiles = []struct {
	name string
	Profile
}{
	{"memcache", Profile{OpCost: 1.2}},
	{"hashtable", Profile{OpCost: 1.0}},
	{"map", Profile{OpCost: 1.6, Ordered: true}},
	{"btree", Profile{OpCost: 1.8, Ordered: true}},
	{"bplustree", Profile{OpCost: 1.7, Ordered: true}},
	{"walstore", Profile{OpCost: 1.1}},
}

// ProfileOf returns the profile of the engine called name; "" is the
// hashtable.
func ProfileOf(name string) (Profile, error) {
	if name == "" {
		name = "hashtable"
	}
	for _, p := range profiles {
		if p.name == name {
			return p.Profile, nil
		}
	}
	return Profile{}, fmt.Errorf("engines: unknown engine %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// Names lists the engine names ProfileOf accepts, in the order the paper
// mentions the applications.
func Names() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.name
	}
	return names
}
