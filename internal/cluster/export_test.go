package cluster

// The package's own test helpers, for its external tests (package
// cluster_test), which can also import packages built on cluster.
var (
	Fingerprint    = fingerprint
	SmallConfig    = smallConfig
	Sharded16Cell  = sharded16Cell
	UpdateFixtures = updateFingerprint
)
