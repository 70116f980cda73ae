package nand

import (
	"fmt"

	"github.com/checkin-kv/checkin/internal/sim"
)

// ArrayState is a deep copy of the array's mutable state: per-block
// lifecycle (erase counts, programmed pages), die/channel busy horizons and
// the operation counters. Geometry, timing and MaxPE are configuration, not
// state — Restore requires the target array to have been built with the
// same geometry.
type ArrayState struct {
	blocks   []blockState
	dies     []sim.FIFOResource
	channels []sim.FIFOResource
	stats    Stats
	relRNG   uint64 // reliability PRNG position (0 when the model is off)
}

// Snapshot captures the array's mutable state. The array has no in-flight
// continuations of its own (an operation books its busy horizons at issue
// and returns its completion instant), so a snapshot is valid at any point.
func (a *Array) Snapshot() *ArrayState {
	s := &ArrayState{
		blocks:   make([]blockState, len(a.blocks)),
		dies:     make([]sim.FIFOResource, len(a.dies)),
		channels: make([]sim.FIFOResource, len(a.channels)),
		stats:    a.stats,
	}
	copy(s.blocks, a.blocks)
	copy(s.dies, a.dies)
	copy(s.channels, a.channels)
	if a.rel != nil {
		s.relRNG = a.rel.rng
	}
	return s
}

// Restore installs a previously captured state into a, which must share the
// captured array's geometry.
func (a *Array) Restore(s *ArrayState) error {
	if len(s.blocks) != len(a.blocks) || len(s.dies) != len(a.dies) || len(s.channels) != len(a.channels) {
		return fmt.Errorf("nand: restore geometry mismatch (%d/%d/%d blocks/dies/channels vs %d/%d/%d)",
			len(s.blocks), len(s.dies), len(s.channels), len(a.blocks), len(a.dies), len(a.channels))
	}
	copy(a.blocks, s.blocks)
	copy(a.dies, s.dies)
	copy(a.channels, s.channels)
	a.stats = s.stats
	if a.rel != nil {
		a.rel.rng = s.relRNG
	}
	return nil
}
