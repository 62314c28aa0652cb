// Package vclock implements fixed-width vector clocks used as the causal
// history summaries ("cauhist") carried by UPD messages under Causal
// consistency. Entry i counts the writes issued by node i that
// happen-before the tagged update.
package vclock

// VC is a vector clock over a fixed number of nodes. VCs are value types;
// use Clone before mutating a shared instance.
type VC []uint64

// New returns the zero clock for n nodes.
func New(n int) VC { return make(VC, n) }

// Clone returns an independent copy.
func (v VC) Clone() VC {
	c := make(VC, len(v))
	copy(c, v)
	return c
}

// WireSize returns the bytes this clock occupies in a message.
func (v VC) WireSize() int { return 8 * len(v) }
