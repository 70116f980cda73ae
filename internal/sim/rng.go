package sim

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random source with named splitting: each component
// of the simulation derives its own independent stream from the run seed and
// a stable name, so adding a consumer never perturbs the draws seen by
// existing ones.
type RNG struct {
	seed int64
	r    *rand.Rand
}

// NewRNG returns a stream seeded from seed.
func NewRNG(seed int64) *RNG {
	return &RNG{seed: seed, r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child stream named name.
func (g *RNG) Split(name string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(name))
	child := g.seed ^ int64(h.Sum64())
	// Avoid the degenerate all-zero state and keep children distinct from
	// the parent even when the name hash collides with zero.
	if child == g.seed {
		child = g.seed + 0x7f4a7c15_9e3779b9
	}
	return NewRNG(child)
}

// Seed returns the stream's seed (diagnostics / reproduction reports).
func (g *RNG) Seed() int64 { return g.seed }

// Intn returns a uniform integer in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform integer in [0, n).
func (g *RNG) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Uint64 returns a uniform 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Float64 returns a uniform value in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
