package sim

// RNG is a small, fast, deterministic random number generator (splitmix64
// seeded xorshift*). It exists so simulations do not depend on math/rand
// global state and remain reproducible across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded deterministically from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator. Any seed, including 0, is valid.
func (r *RNG) Seed(seed uint64) {
	// splitmix64 scramble so nearby seeds give unrelated streams.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x853c49e6748fea9b
	}
	r.state = z
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fork derives an independent child generator; the parent advances once.
// Children of distinct draws are statistically independent streams, used to
// give every simulated client its own reproducible randomness.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// ForkValue is Fork by value: the same child stream, for a generator held
// inside a larger record.
func (r *RNG) ForkValue() RNG {
	var c RNG
	c.Seed(r.Uint64())
	return c
}
